"""Constructions that only the tests use: conversions of term dicts and
Scalars to cyclotomic exponent vectors, the inverse of a vector, the
assembly of the coproduct theorem on vectors with one checked sum per key,
the structure-positivity rule on Scalars, the Scalar of a ratio of quantum
integers, the lines of the golden files, the PBW normal form by the
defining relations alone, the h-binomials as products of their factors,
and the canonical text of terms written one part at a time.

Not a test module: the tests import it by name.
"""

from iqsl2 import idp, pbw, tensor
from iqsl2._kernel_py import _pack
from iqsl2.coeff import LaurentPoly, Scalar
from iqsl2.cyclo import _prove, qratio_vector, to_scalar, vmul
from iqsl2.errors import NotIntegral
from iqsl2.idp import EV, mult_closed
from iqsl2.qcomb import qint
from iqsl2.sparse import _acc
from iqsl2.verify import expand_comult


def vinv(x):
    """The inverse of the nonzero vector x."""
    sign, i, j, exps = x
    return sign, -i, -j, -exps


def from_terms(t, dmax):
    """The vector of the nonzero term dict t with factors Phi_d, d <= dmax;
    None when t is not proved to be of that shape, by the evaluation of
    ``cyclo._prove``."""
    j = next(iter(t))[1]
    if any(jj != j for _, jj in t):
        return None
    lo = min(i for i, _ in t)
    poly = {i - lo: c for (i, _), c in t.items()}
    return _prove(lambda k: _pack(poly, k), max(map(abs, t.values())), lo, j,
                  0, range(1, dmax + 1))


def from_scalars(t, dmax):
    """{key: vector} of the dict t of nonzero Scalars with factors Phi_d,
    d <= dmax; None when a numerator or denominator does not convert. The
    tests compare the closed vectors against it."""
    out = {}
    for key, s in t.items():
        num = from_terms(s.num._t, dmax)
        den = from_terms(s.den._t, dmax)
        if num is None or den is None:
            return None
        out[key] = vmul(num, vinv(den))
    return out


def theorem_vectors(p, n):
    """comult_theorem(p, n) as {(m1, m2): vector}, from the vectors of the
    images and the legs with one checked sum per key; None when a sum of
    an image or of the assembly is not proved. ``idp._comult_agrees``
    checks the same assembly against the direct side as it builds it."""
    terms = {}
    for r in range(n + 1):
        image = idp._pbw_vectors(p, n - r)
        if image is None:
            return None
        leg = idp._leg_vectors(p, n, r)
        for m1, x in image.items():
            for m2, y in leg.items():
                terms.setdefault((m1, m2), []).append(vmul(x, y))
    # the coefficients of both sides hold Phi_d with d <= n only
    return idp._vsums(terms, n)


def structure_positivity(p, m, n):
    """The witness of the check structure-positivity (p, m, n), None when
    it passes, by the Scalar rule: every coefficient of ``mult_closed`` at
    varsigma = q^-1 is a Laurent polynomial with nonnegative coefficients.
    The suite reads the table's rows on vectors and is compared with it."""
    bad = []
    for d, s in sorted(mult_closed(p, m, n).items()):
        sp = s.specialize_varsigma()
        try:
            lp = sp.to_laurent()
        except NotIntegral:
            bad.append(f"degree {d}: not integral: {sp}")
            continue
        if not lp.is_nonneg():
            bad.append(f"degree {d}: negative terms: {lp}")
    return "; ".join(bad) if bad else None


def qratio(nums, dens):
    """The Scalar of the product of quantum integers over ``nums`` divided
    by the product over ``dens``, in lowest terms with no gcd."""
    return to_scalar(qratio_vector(nums, dens))


def format_terms_reference(items):
    """The canonical text of the terms ((i, j), c), c != 0, given ascending
    in (i, j), written one part at a time: the sign or the joiner, the
    coefficient, then the powers. The reference that ``coeff.format_terms``,
    one signed string per term, is compared with."""
    parts = []
    add = parts.append
    for (i, j), c in items:
        if c < 0:
            add(" - " if parts else "-")
            c = -c
        elif parts:
            add(" + ")
        if c != 1 or not (i or j):
            add(f"{c}*" if i or j else str(c))
        if i:
            add("q" if i == 1 else f"q^{i}")
            if j:
                add("*")
        if j:
            add("v" if j == 1 else f"v^{j}")
    return "".join(parts) if parts else "0"


def format_mult(parity, m, n):
    """One-line rendering of a closed product in the divided-power basis."""
    out = mult_closed(parity, m, n)
    parts = [f"({out[d]})*B^({d})" for d in sorted(out, reverse=True)]
    rhs = " + ".join(parts) if parts else "0"
    return f"B^({m})*B^({n})= {rhs}"


def golden_mult_lines(parity):
    """The displayed products of one family at the documented small orders."""
    lines = []
    if parity == EV:
        pairs = [(m, n) for m in (2, 3, 4)
                 for a in (1, 2, 3) for n in (2 * a - 1, 2 * a)]
    else:
        pairs = [(m, n) for m in (2, 3, 4)
                 for a in (0, 1, 2, 3) for n in (2 * a, 2 * a + 1)]
    for m, n in sorted(set(pairs)):
        lines.append(format_mult(parity, m, n))
    return lines


def golden_comult_lines(parity):
    """The displayed coproducts of one family at orders two and three."""
    return [f"n={n}: {expand_comult(parity, n, 'theorem')}"
            for n in (2, 3)]


# the reference normal form of m1 * m2, keyed by the monomial pair
_MONO_CACHE = {}


def _rmul_e(t):
    """Right-multiply a normal-form dict by E, by K E = q^2 E K and
    E F^c = F^c E + [c] F^(c-1) (q^(1-c) K - q^(c-1) K^-1) / (q - q^-1)."""
    out = {}
    cdiv = LaurentPoly.q(1) - LaurentPoly.q(-1)
    for (a, b, c), s in t.items():
        _acc(out, (a + 1, b, c), s * Scalar.q_power(2 * b))
        if c:
            w = s * Scalar(qint(c), cdiv)
            _acc(out, (a, b - 1, c - 1), w * Scalar.q_power(1 - c))
            _acc(out, (a, b + 1, c - 1), -(w * Scalar.q_power(c - 1)))
    return out


def mono_mul(m1, m2):
    """The normal form of the PBW monomials m1 * m2 as {monomial: Scalar},
    on Scalars, by right multiplication with one generator at a time: the
    reference that ``pbw._mono_mul``, a closed formula, is compared with."""
    if m2 == (0, 0, 0):
        return {m1: Scalar.one()}
    key = (m1, m2)
    r = _MONO_CACHE.get(key)
    if r is None:
        a2, b2, c2 = m2
        if c2 > 0:
            r = {(a, b, c + 1): s
                 for (a, b, c), s in mono_mul(m1, (a2, b2, c2 - 1)).items()}
        elif b2:
            sign = 1 if b2 > 0 else -1
            r = {(a, b + sign, c): s * Scalar.q_power(2 * c * sign)
                 for (a, b, c), s in mono_mul(m1, (a2, b2 - sign, 0)).items()}
        else:
            r = _rmul_e(mono_mul(m1, (a2 - 1, 0, 0)))
        _MONO_CACHE[key] = r
    return r


def oracle_products(monkeypatch):
    """Make the products of UElements and TensorElements take their
    monomial products from ``mono_mul``, so that the plain constructions
    share no step with the closed commutation formula."""
    monkeypatch.setattr(pbw.UElement, "_key_mul", staticmethod(mono_mul))
    monkeypatch.setattr(tensor, "_mono_mul", mono_mul)


# the reference h-binomials, keyed by (a, n)
_HBINOM_CACHE = {}


def h_binom(a, n):
    """The shifted h-binomial, product over i = 1..n of
    (q^(4a+4i-4) K^-2 - 1)/(q^(4i) - 1), one factor at a time on Scalars:
    the reference that ``pbw._h_binom_vectors``, a closed formula, is
    compared with."""
    key = (a, n)
    r = _HBINOM_CACHE.get(key)
    if r is None:
        if n == 0:
            r = pbw.UElement.one()
        else:
            d = LaurentPoly.q(4 * n) - LaurentPoly.one()
            factor = pbw.UElement({
                (0, -2, 0): Scalar(LaurentPoly.q(4 * a + 4 * n - 4), d),
                (0, 0, 0): Scalar(-LaurentPoly.one(), d),
            })
            r = h_binom(a, n - 1) * factor
        _HBINOM_CACHE[key] = r
    return r
