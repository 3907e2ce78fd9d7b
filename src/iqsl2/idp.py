"""Divided powers of the coideal generator B, in both families.

The coideal subalgebra of the quantized enveloping algebra is the
commutative polynomial ring in the single element B = F + varsigma E K^-1.
It carries two families ("ev" and "odd") of divided powers B^{(n)}, each
given by a closed product formula and, equivalently, by a two-term
recursion. This module provides

* ``BPolynomial``      -- polynomials in the commuting symbol B over Scalar;
* ``idp_closed`` / ``idp_recursive``
                       -- two independent constructions of B^{(n)};
* ``idp_basis_expand`` -- triangular change of basis from powers of B to
                          divided powers;
* ``mult_closed``      -- closed-form structure constants of
                          B^{(m)} B^{(n)}, all eight parity cases;
* ``mult_direct``      -- the same constants computed from first
                          principles, by expanding the product;
* ``s_component`` / ``comult_closed``
                       -- the right tensor legs S_{n,r} of the coproduct,
                          Delta(B^{(n)}) = sum_r B^{(n-r)} (x) S_{n,r},
                          with E-check powers on the left;
* ``s_component_reversed`` / ``comult_closed_reversed``
                       -- the same legs written with F powers on the left
                          and E-check powers on the right;
* ``idp_to_pbw``       -- substitution B = F + varsigma E K^-1, by Horner's
                          rule on products in the PBW basis;
* ``comult_direct`` / ``comult_theorem`` / ``comult_theorem_reversed``
                       -- the coproduct computed from first principles,
                          and assembled from either kind of closed legs.

Both families are B^{(n)} = P_n(B) / [n]! with P_n monic of degree n and
Laurent-polynomial coefficients: the product of the quadratic factors of
``idp_closed``, times B when n is odd. ``_numerator`` memoizes P_n as
integral term dicts. Because P_n is monic, the back-substitution onto
divided powers (``idp_basis_expand``) stays integral: its argument is
brought over one common denominator, step j subtracts rem[j] P_j from the
numerators, and only the output coefficient rem[j] [j]! / den is a
fraction, reduced once. ``mult_direct`` runs it on the product of two
closed divided powers, whose denominators are products of quantum
integers, which are varsigma-free, so each reduced coefficient, and its
text, is the one a computation on Scalar coefficients gives (see the
``coeff`` docstring).

``mult_closed`` writes each term, prefactor qbinom(m+n, m) and
(q varsigma)^l included, as one ratio of quantum integers, counted as a
cyclotomic exponent vector (``cyclo.qratio_vector``) and built in lowest
terms with no gcd (``cyclo.to_scalar``). An index pair 0/0 is removed
exactly, which resolves the one removable singularity among the closed
multiplication formulas (both-odd case of the "odd" family at l = a+1)
without special-casing.

The multiplication suites decide their checks by interpolation. Divided
by B^{n mod 2}, B^{(n)} is a polynomial of degree floor(n/2) in X = B^2,
and at the point X_i = q varsigma [i]^2 each factor B^2 - q varsigma [j]^2
of P_n is q varsigma [i-j] [i+j], so its value there is one ratio of
quantum integers (``_point_values``). Both sides of the product law, and of
the two-term recursion, are polynomials in X of degree at most
floor(s/2), s the total order, and the [i]^2 are distinct for i >= 0, so
an identity holds iff it holds at X_0, ..., X_{floor(s/2)}. There each
side is a list of vectors, and one ``cyclo.vsum`` per point proves the
difference 0 (``_mult_agrees``, ``_recursive_points``), with no term dict
and no Scalar. The product side f_m f_n is symmetric in m and n, so the
proofs for (m, n) and (n, m) also prove the closed sides of the two equal.

The PBW images of the closed divided powers and the closed legs are built
once, on the cyclotomic exponent vectors of ``cyclo``: the image one factor
B^2 - q varsigma [idx]^2 at a time with one checked sum per monomial per
factor (``_pbw_vectors``), the legs term by term in closed form
(``_leg_vectors``). Their Scalars, and so their text, are ``to_scalar`` of
these vectors (``_pbw_closed``, ``s_component``). ``_comult_agrees``
decides the coproduct theorem on the same vectors, with the coproduct
monomial by monomial (``tensor.delta_vectors``) and one checked sum per key
of the assembly. The plain substitution ``idp_to_pbw`` is the independent
construction of the images: the vector image of order ``_ANCHOR`` must
equal it, and it gives the image of an order the vectors do not prove. The
reversed legs, built by products in the PBW basis, are the independent
construction of the legs.
"""

from functools import reduce

from .coeff import LaurentPoly, Scalar
from ._kernel_py import kadd, kmul, kshift, ksub
from .cyclo import (
    _START,
    _qratio_finish,
    _qratio_fold,
    qratio_vector,
    to_scalar,
    vmul,
    vsum,
)
from .errors import NegativeInput
from .pbw import UElement, divided_power, u_gen, u_h_binom
from .qcomb import qfact, qint
# re-exported: perfbench's tracer looks the name up on this module
from .qcomb import qbinom  # noqa: F401
from .sparse import Sparse, _acc
from .tensor import TensorElement, delta, delta_vectors

EV = "ev"
ODD = "odd"
PARITIES = (EV, ODD)

_SC_ZERO = Scalar.zero()
_SC_ONE = Scalar.one()
# q*varsigma, the combination every correction term carries
_QVS = Scalar.vs_power(1, 1)


def _check_degree(d):
    """``d`` as a degree in B: TypeError unless an int, ValueError if negative."""
    if not isinstance(d, int):
        raise TypeError(f"degree {d!r} is not an int")
    if d < 0:
        raise ValueError(f"negative degree {d}")
    return d


def _check_order(p, *orders):
    """ValueError unless ``p`` is a family, NegativeInput if an order is
    negative."""
    if p not in PARITIES:
        raise ValueError(f"unknown family {p!r}; expected 'ev' or 'odd'")
    if any(n < 0 for n in orders):
        raise NegativeInput("divided power of negative order")


class BPolynomial(Sparse):
    """Polynomial in the commuting symbol B with Scalar coefficients."""

    __slots__ = ()

    _check_key = staticmethod(_check_degree)

    @staticmethod
    def _key_mul(d1, d2):
        return {d1 + d2: _SC_ONE}

    @staticmethod
    def _format(d):
        return "" if d == 0 else "B" if d == 1 else f"B^{d}"

    @classmethod
    def one(cls):
        return cls._raw({0: _SC_ONE})

    @classmethod
    def b(cls):
        return cls._raw({1: _SC_ONE})

    @classmethod
    def monomial(cls, d, coeff=1):
        return cls({d: coeff})

    coeffs = Sparse.terms

    def coeff(self, d):
        return self._t.get(d, _SC_ZERO)

    def degree(self):
        """Largest degree with a nonzero coefficient; -1 for the zero polynomial."""
        return max(self._t) if self._t else -1


def _factor_index(p, n):
    """The index i of the last factor B^2 - q varsigma [i]^2 of P_n, n >= 2."""
    k = n // 2
    if p == EV:
        return 2 * k if n % 2 else 2 * k - 2
    return 2 * k - 1


# monic numerator P_n of B^{(n)} = P_n(B) / [n]!, keyed by (family, order):
# {degree: term dict}, integral, with leading coefficient 1 at degree n
_NUMERATOR_CACHE = {}


def _numerator(p, n):
    """P_n = P_{n-2} (B^2 - q varsigma [idx]^2) with P_0 = 1, P_1 = B.

    The index of the new factor is the last of the sequence described in
    ``idp_closed``; the sequence for n extends the one for n - 2 by it.
    """
    key = (p, n)
    r = _NUMERATOR_CACHE.get(key)
    if r is not None:
        return r
    if n < 2:
        r = {n: {(0, 0): 1}}
    else:
        sq = qint(_factor_index(p, n))._t
        shift = kshift(kmul(sq, sq), 1, 1, 1)  # q varsigma [idx]^2
        r = {}
        for d, t in _numerator(p, n - 2).items():
            r[d + 2] = kadd(r.get(d + 2, {}), t)
            low = ksub(r.get(d, {}), kmul(t, shift))
            if low:
                r[d] = low
            else:
                r.pop(d, None)
    _NUMERATOR_CACHE[key] = r
    return r


_CLOSED_CACHE = {}


def idp_closed(p, n):
    """The closed product form of the divided power B^{(n)} in family ``p``.

    With k = floor(n/2), the product has k quadratic factors B^2 - qvs[i]^2
    over an index sequence fixed by the family and the parity of n (even
    indices from 0 or from 2 for the "ev" family, odd indices for the "odd"
    family), preceded by a bare B when n is odd, all divided by [n]!.
    """
    _check_order(p, n)
    key = (p, n)
    r = _CLOSED_CACHE.get(key)
    if r is not None:
        return r
    den = qfact(n)._t
    r = BPolynomial._raw(
        {d: Scalar._make(t, den) for d, t in _numerator(p, n).items()})
    _CLOSED_CACHE[key] = r
    return r


_REC_CACHE = {}


def idp_recursive(p, n):
    """B^{(n)} computed by the family's two-term recursion.

    Both families start from B^{(0)} = 1 and B^{(1)} = B. One parity step
    divides B * B^{(n-1)} by [n]; the other first subtracts
    qvs [n-1] B^{(n-2)}. Which step applies to which parity of n is what
    distinguishes the families. Independent of ``idp_closed`` by design:
    the two constructions cross-check each other.
    """
    _check_order(p, n)
    key = (p, n)
    r = _REC_CACHE.get(key)
    if r is not None:
        return r
    if n == 0:
        r = BPolynomial.one()
    elif n == 1:
        r = BPolynomial.b()
    else:
        top = BPolynomial.b() * idp_recursive(p, n - 1)
        if _corrected(p, n):
            top = top - idp_recursive(p, n - 2).scale(_QVS * Scalar(qint(n - 1)))
        r = top.scale(Scalar(LaurentPoly.one(), qint(n)))
    _REC_CACHE[key] = r
    return r


def _corrected(p, n):
    """True when the recursion step to order n subtracts the correction
    term: on odd n for "ev", on even n for "odd"."""
    return n % 2 == (1 if p == EV else 0)


def idp_basis_expand(x, p):
    """Coefficients c_j with x = sum_j c_j B^{(j)} in family ``p``.

    The coefficients of x are brought over one common denominator den, and
    the integral numerators rem are expanded by triangular
    back-substitution from the top degree down. P_j is monic of degree j,
    so step j subtracts rem[j] P_j, which stays integral, and as B^{(j)} is
    P_j / [j]!, c_j = rem[j] [j]! / den is the only fraction formed,
    reduced once. Degrees on the parity lattice of the top degree are
    always recorded, zeros included; a nonzero coefficient off that lattice
    is recorded as well.
    """
    _check_order(p)
    rem, den = _over_one_den(x)
    out = {}
    top = max((d for d, t in rem.items() if t), default=-1)
    lattice = top % 2
    for j in range(top, -1, -1):
        t = rem.pop(j, None)
        if t:
            for d, pt in _numerator(p, j).items():
                if d != j:
                    rem[d] = ksub(rem.get(d, {}), kmul(t, pt))
            out[j] = Scalar._make(kmul(t, qfact(j)._t), den)
        elif j % 2 == lattice:
            out[j] = _SC_ZERO
    if any(rem.values()):
        raise AssertionError("triangular expansion left a remainder")
    return out


def _over_one_den(x):
    """The coefficients of the BPolynomial x over one common denominator:
    integral numerators {degree: term dict} and the denominator's term dict."""
    den = LaurentPoly.one()
    for _, s in x.coeffs():
        # den times den_i / gcd(den, den_i): a common multiple of both
        den = den * Scalar(s.den, den).num
    return ({d: (s.num * den.exact_div(s.den))._t for d, s in x.coeffs()},
            den._t)


def mult_direct(p, m, n):
    """B^{(m)} B^{(n)} expanded on divided powers from first principles:
    the product of the closed divided powers as polynomials in B, expanded
    by ``idp_basis_expand``. The suites compare it with ``mult_closed``
    only where the values at the points do not decide (``_mult_agrees``).
    """
    return idp_basis_expand(idp_closed(p, m) * idp_closed(p, n), p)


# (family, m % 2, n % 2) -> offsets (dn, dm, dd) of the closed product: term
# l carries the ratio over i = 1..l of [n+dn-2i][m+dm-2i] / [m+n+dd-2i][2i]
_MULT_OFFSETS = {
    (EV, 1, 1): (1, 1, 1),
    (EV, 1, 0): (2, 3, 2),
    (EV, 0, 1): (3, 2, 2),
    (EV, 0, 0): (2, 2, 1),
    (ODD, 1, 1): (1, 3, 1),
    (ODD, 1, 0): (2, 1, 2),
    (ODD, 0, 1): (1, 2, 2),
    (ODD, 0, 0): (2, 2, 1),
}


def _mult_closed_terms(p, m, n):
    """The closed formula of ``mult_closed`` as {degree: [vector]}: the
    nonzero ratios of quantum integers whose sum is the coefficient, each
    counted as in ``cyclo.qratio_vector``, degrees descending; a degree
    whose terms all vanish is left out."""
    s = m + n
    dn, dm, dd = _MULT_OFFSETS[p, m % 2, n % 2]
    # the prefactor qbinom(s, m) = [s]! / ([m]! [n]!) as indices; the
    # counts of the product over i = 1..l are carried from l - 1
    state = _qratio_fold(_START, range(1, s + 1),
                         [*range(1, m + 1), *range(1, n + 1)])
    out = {s: [_qratio_finish(state)]}
    for l in range(1, (m + dm - 1) // 2 + 1):
        state = _qratio_fold(state, (n + dn - 2 * l, m + dm - 2 * l),
                             (s + dd - 2 * l, 2 * l))
        if p == EV and not m % 2 and not n % 2:
            terms = [_qratio_finish(
                _qratio_fold(state, (s - 2 * l,), (s,)), l)]
        elif p == ODD and m % 2 and n % 2:
            terms = [
                _qratio_finish(_qratio_fold(
                    state, (s - 2 * l, m + 1 - 2 * l), (s, m + 1)), l),
                _qratio_finish(_qratio_fold(
                    state, (s + 1 - 2 * l, s + 1 - 2 * l, 2 * l),
                    (s, n + 1 - 2 * l, m + 1)), l),
            ]
        else:
            terms = [_qratio_finish(state, l)]
        terms = [x for x in terms if x]
        if terms:
            out[s - 2 * l] = terms
    return out


def mult_closed(p, m, n):
    """Closed-form coefficients of B^{(m)} B^{(n)} on divided powers.

    Returns a mapping degree -> Scalar with only nonzero entries; the
    product equals sum_d coeff[d] * B^{(d)} in family ``p``. In all eight
    (family, parity of m, parity of n) cases the top term is qbinom(m+n, m)
    at degree m+n, and term l = 1..floor((m+dm-1)/2) is that prefactor
    times (qvs)^l times

        prod_{i=1..l} [n+dn-2i] [m+dm-2i] / ([m+n+dd-2i] [2i])

    at degree m+n-2l, with the offsets of ``_MULT_OFFSETS``. Two cases
    carry one more factor: [m+n-2l]/[m+n] for "ev" with m, n even, and for
    "odd" with m, n odd a sum of two ratios. Out-of-range terms vanish
    through zero quantum integers. Each ratio is a Scalar in lowest terms
    built with no gcd (``cyclo.to_scalar``). The suites decide their checks
    on the same terms at the points (``_mult_closed_points``) and call this
    only where the points do not.
    """
    _check_order(p, m, n)
    out = {}
    for d, terms in _mult_closed_terms(p, m, n).items():
        t = sum(map(to_scalar, terms[1:]), to_scalar(terms[0]))
        if not t.is_zero():
            out[d] = t
    return out


def _point_values(p, bound):
    """The values of B^{(d)} / B^{d mod 2} in family ``p`` at the points
    X_i = q varsigma [i]^2, as vectors or 0, indexed [d][i], for
    d = 0..bound and i = 0..floor(bound/2), the points that decide every
    product of total order at most ``bound``. At X_i each factor
    B^2 - q varsigma [j]^2 of P_d is q varsigma [i-j] [i+j], over the
    indices j of ``_factor_index`` that ``_numerator`` multiplies."""
    out = []
    for d in range(bound + 1):
        idx = [_factor_index(p, k) for k in range(d, 1, -2)]
        out.append([qratio_vector([x for j in idx for x in (i - j, i + j)],
                                  range(1, d + 1), len(idx))
                    for i in range(bound // 2 + 1)])
    return out


def _x_point(i):
    """X_i = q varsigma [i]^2 as a vector, 0 at i = 0."""
    return qratio_vector([i, i], [], 1)


def _vprod(*xs):
    """The product of vectors, 0 when one of them is 0."""
    return reduce(vmul, xs) if all(xs) else 0


def _neg(x):
    """-x for a vector or 0."""
    return x and (-x[0], *x[1:])


def _vanishes(terms, dmax):
    """True when the nonzero vectors ``terms`` are proved to sum to 0."""
    return not terms or vsum(terms, dmax) == 0


def _mult_closed_points(terms, m, n, values):
    """The closed side sum_d c_d B^{(d)} / B^{(m+n) mod 2} of ``mult_closed``
    at X_i, i = 0..floor((m+n)/2), from ``terms``, the closed terms
    ``_mult_closed_terms(p, m, n)``, and the table ``values`` of
    ``_point_values``: for each point the terms times the value of their
    B^{(d)}."""
    return [[vmul(x, values[d][i]) for d, xs in terms.items() if values[d][i]
             for x in xs]
            for i in range((m + n) // 2 + 1)]


def _mult_agrees(terms, m, n, values):
    """True when the points prove that the closed terms ``terms`` of
    ``_mult_closed_terms(p, m, n)`` give B^{(m)} B^{(n)}, that is
    mult_closed(p, m, n) == mult_direct(p, m, n); False when a sum at a
    point is nonzero or not proved.

    Divided by B^{(m+n) mod 2}, the product B^{(m)} B^{(n)} is the product
    of the two values, times X when m and n are both odd. Every term of
    each point carries varsigma^floor((m+n)/2), so ``vsum`` never refuses a
    sum for its varsigma exponent, and its indices i +- j stay below
    2 (m+n). The answer reads only ``terms``, ``values[m]``, ``values[n]``,
    the parities of m and n and m + n, all symmetric in m and n, so equal
    terms of (m, n) and (n, m) share it (``verify._suite_mult``).
    """
    for i, right in enumerate(_mult_closed_points(terms, m, n, values)):
        left = _vprod(values[m][i], values[n][i])
        if m % 2 and n % 2:
            left = _vprod(left, _x_point(i))
        if left:
            right.append(_neg(left))
        if not _vanishes(right, 2 * (m + n)):
            return False
    return True


def _recursive_points(p, bound):
    """The values of idp_recursive(p, n) / B^{n mod 2} at X_i, indexed
    [n][i], for i = 0..floor(bound/2), by the recursion of
    ``idp_recursive`` on values,

        f_n = (X^[n even] f_{n-1} - [corrected] q varsigma [n-1] f_{n-2})
              / [n],

    from f_0 = f_1 = 1, with one ``vsum`` per point and no closed value.
    The rows stop before the first n at which a sum is not proved.
    """
    one = (1, 0, 0, 0)
    rows = [[one] * (bound // 2 + 1) for _ in range(min(bound, 1) + 1)]
    for n in range(2, bound + 1):
        corr = qratio_vector([n - 1], [], 1) if _corrected(p, n) else 0
        row = []
        for i, (f1, f2) in enumerate(zip(rows[n - 1], rows[n - 2])):
            top = _vprod(f1, _x_point(i)) if n % 2 == 0 else f1
            terms = [x for x in (top, _neg(_vprod(f2, corr))) if x]
            # the indices i +- j of the value stay at most i + n
            f = vsum(terms, i + n) if terms else 0
            if f is None:
                return rows
            row.append(f and vmul(f, qratio_vector([], [n])))
        rows.append(row)
    return rows


def _leg_exponent_style(p, n):
    """True when the closed coproduct legs of (family p, order n) use the
    q-exponent c(2c-1) with floor (r-2)/2, False for c(2c+1) with floor
    (r-1)/2. The two families use the two styles on opposite parities."""
    return (p == EV) == (n % 2 == 0)


def s_component(p, n, r):
    """The right tensor leg S_{n,r} of the coproduct of B^{(n)}.

    A triple sum over c in [0, floor(r/2)] and a in [0, r-2c] of

        q^{X + (r-2c)(r-n) - a(r-2c-a)} (qvs)^c
            Echeck^{(a)} [h-binomial; A]_c K^{r-n} F^{(r-2c-a)}

    where X = c(2c-1), A = -floor((r-2)/2) in one exponent style and
    X = c(2c+1), A = -floor((r-1)/2) in the other. Zero outside 0 <= r <= n.

    Each summand is already in PBW order: Echeck^{(a)} is a multiple of
    E^a K^-a and the h-binomial a combination of powers of K, so the term
    of K^b in the h-binomial lands on E^a K^{b-a+r-n} F^{(r-2c-a)}, one
    monomial per (c, a, b), with no rewriting. Each coefficient is
    ``to_scalar`` of its vector (``_leg_vectors``).
    """
    _check_order(p, n)
    if r < 0 or r > n:
        return UElement.zero()
    return UElement._raw(
        {m: to_scalar(x) for m, x in _leg_vectors(p, n, r).items()})


def _leg_terms(p, n, r):
    """(A, c, a, r-2c-a, exponent of q) for each (c, a) of the triple sum
    of ``s_component``, with A the shift of its h-binomial."""
    style = _leg_exponent_style(p, n)
    shift = -((r - 2) // 2) if style else -((r - 1) // 2)
    for c in range(r // 2 + 1):
        x = c * (2 * c - 1) if style else c * (2 * c + 1)
        for a in range(r - 2 * c + 1):
            k = r - 2 * c - a
            yield shift, c, a, k, x + (r - 2 * c) * (r - n) - a * k


# the vectors of the coefficients of u_h_binom(a, c), keyed by (a, c)
_HBINOM_VEC_CACHE = {}


def _h_binom_vectors(a, c):
    """[v_0, ..., v_c]: v_j is the vector of the coefficient of K^-2j in
    u_h_binom(a, c), (-1)^(c-j) q^(4aj + 2j(j-1)) / (P_j P_(c-j)) by the
    q-binomial theorem in z = q^4, with P_m = prod_{i=1..m} (z^i - 1). As
    z^i - 1 is the product of Phi_d(q^2) over the d dividing 2i, it is
    Phi_1(q^2) times the Phi_d of [2i], and P_m holds Phi_1^m and the Phi_d
    of [2] [4] ... [2m] (``qratio_vector``).
    """
    r = _HBINOM_VEC_CACHE.get((a, c))
    if r is None:
        r = []
        for j in range(c + 1):
            k = c - j
            exps = qratio_vector(
                [], [*range(2, 2 * j + 1, 2), *range(2, 2 * k + 1, 2)])[3]
            # Phi_1^-c: the exponent of Phi_1 is the lowest field
            r.append((-1 if k % 2 else 1, 4 * a * j + 2 * j * (j - 1), 0,
                      exps - c))
        _HBINOM_VEC_CACHE[a, c] = r
    return r


def _leg_vectors(p, n, r):
    """S_{n,r} as {monomial: vector}, 0 <= r <= n: the terms of
    ``s_component`` with each factor's vector in closed form. The
    coefficient q^e (q varsigma)^c Echeck^{(a)} F^{(k)} is
    q^(e + c - a(a-1)) varsigma^(a+c) / ([a]! [k]!)."""
    out = {}
    for shift, c, a, k, e in _leg_terms(p, n, r):
        f = vmul(qratio_vector([], [*range(1, a + 1), *range(1, k + 1)], a + c),
                 (1, e - a * a, 0, 0))
        for j, h in enumerate(_h_binom_vectors(shift, c)):
            out[a, -2 * j - a + r - n, k] = vmul(h, f)
    return out


def s_component_reversed(p, n, r):
    """S_{n,r} in the reversed presentation: F powers on the left, E-check
    powers on the right, signs (-1)^c, with

        (-1)^c q^{Y - (r-2c)(r-n) + a(r-2c-a)} (qvs)^c
            F^{(a)} [h-binomial; 1-c+G]_c K^{r-n} Echeck^{(r-2c-a)}

    where Y = 3c, G = floor((r-2)/2) in the exponent style that pairs with
    X = c(2c-1) above, and Y = c, G = floor((r-1)/2) in the other.
    """
    _check_order(p, n)
    if r < 0 or r > n:
        return UElement.zero()
    style = _leg_exponent_style(p, n)
    g = (r - 2) // 2 if style else (r - 1) // 2
    kpow = UElement.monomial(0, r - n, 0)
    out = {}
    for c in range(r // 2 + 1):
        y = 3 * c if style else c
        hb = u_h_binom(1 - c + g, c)
        qvs_c = Scalar.vs_power(c, c)
        if c % 2:
            qvs_c = -qvs_c
        for a in range(r - 2 * c + 1):
            e = y - (r - 2 * c) * (r - n) + a * (r - 2 * c - a)
            term = (divided_power("F", a) * hb * kpow
                    * divided_power("Echeck", r - 2 * c - a))
            f = Scalar.q_power(e) * qvs_c
            for m, v in term._t.items():
                _acc(out, m, v * f)
    return UElement._raw(out)


def comult_closed(p, n):
    """All closed coproduct legs [(r, S_{n,r})] for r = 0..n."""
    _check_order(p, n)
    return [(r, s_component(p, n, r)) for r in range(n + 1)]


def comult_closed_reversed(p, n):
    """All reversed coproduct legs [(r, S_{n,r})] for r = 0..n."""
    _check_order(p, n)
    return [(r, s_component_reversed(p, n, r)) for r in range(n + 1)]


def idp_to_pbw(x):
    """Substitute B = F + varsigma E K^-1 into a BPolynomial: its
    coefficients over one denominator (``_over_one_den``), Horner's rule on
    products by F + Echeck in the PBW basis, then one division."""
    rem, den = _over_one_den(x)
    b = u_gen("F") + u_gen("Echeck")
    out = UElement.zero()
    for d in range(max(rem, default=-1), -1, -1):
        out = out * b
        if d in rem:
            out = out + UElement.monomial(0, 0, 0, LaurentPoly(rem[d]))
    return out.scale(Scalar(LaurentPoly.one(), LaurentPoly(den)))


# PBW image of the closed divided power, keyed by (family, order)
_PBW_CLOSED_CACHE = {}


def _pbw_closed(p, n):
    """The PBW image of B^{(n)}: ``to_scalar`` of the vector image, or the
    plain substitution ``idp_to_pbw`` when the vectors are not proved."""
    key = (p, n)
    r = _PBW_CLOSED_CACHE.get(key)
    if r is None:
        v = _pbw_vectors(p, n)
        r = (idp_to_pbw(idp_closed(p, n)) if v is None else
             UElement._raw({m: to_scalar(x) for m, x in v.items()}))
        _PBW_CLOSED_CACHE[key] = r
    return r


def _rmul_B_vectors(terms):
    """Right-multiply {monomial: [vector]} by B = F + varsigma E K^-1, term
    by term, by the commutation identity of ``pbw``: x E^a K^b F^c B is x
    on (a, b, c+1), x q^(2(b-c)) varsigma on (a+1, b-1, c) and, for
    c >= 1, x [c] varsigma / (q^2 - 1) times q^(4-3c) on (a, b-2, c-1) and
    times -q^(2-c) on (a, b, c-1). The terms of a monomial stay unsummed.
    """
    out = {}
    for (a, b, c), xs in terms.items():
        out.setdefault((a, b, c + 1), []).extend(xs)
        out.setdefault((a + 1, b - 1, c), []).extend(
            (s, i + 2 * (b - c), j + 1, e) for s, i, j, e in xs)
        if c:
            # [c] / (q^2 - 1): Phi_1(q^2) = q^2 - 1 in the denominator
            _, i, j, e = qratio_vector([c], [], 0)
            e -= 1
            low = out.setdefault((a, b - 2, c - 1), [])
            mid = out.setdefault((a, b, c - 1), [])
            for x in xs:
                low.append(vmul(x, (1, i + 4 - 3 * c, 1, e)))
                mid.append(vmul(x, (-1, i + 2 - c, 1, e)))
    return out


# the PBW image of the closed divided power as {monomial: vector}, keyed by
# (family, order); None when a sum was not proved
_PBW_VEC_CACHE = {}

# the order whose vector image is compared with the plain substitution
# (``idp_to_pbw``) when it is built, which ties the B step on vectors to
# the products of ``pbw``: the least order at which both families take
# every branch of the B step and a correction term
_ANCHOR = 3


def _pbw_vectors(p, n):
    """The image of B^{(n)} = B^{(n-2)} (B^2 - q varsigma [idx]^2) / ([n]
    [n-1]), with B^{(0)} = 1 and B^{(1)} = B, one factor at a time: the
    terms of B^{(n-2)} B B and of the correction are summed once per
    monomial. AssertionError when the image of order ``_ANCHOR`` differs
    from ``idp_to_pbw``."""
    key = (p, n)
    if key in _PBW_VEC_CACHE:
        return _PBW_VEC_CACHE[key]
    if n < 2:
        terms = {(0, 0, 0): [(1, 0, 0, 0)]}
        if n:
            terms = _rmul_B_vectors(terms)
    else:
        prev = _pbw_vectors(p, n - 2)
        if prev is None:
            _PBW_VEC_CACHE[key] = None
            return None
        inv = qratio_vector([], [n, n - 1])
        terms = _rmul_B_vectors(_rmul_B_vectors(
            {m: [vmul(x, inv)] for m, x in prev.items()}))
        idx = _factor_index(p, n)
        if idx:
            _, i, j, e = qratio_vector([idx, idx], [n, n - 1], 1)
            for m, x in prev.items():
                terms.setdefault(m, []).append(vmul(x, (-1, i, j, e)))
    r = {}
    for m, t in terms.items():
        # the denominators divide (q^2 - 1)^floor(n/2) [n]!: Phi_d, d <= n
        v = vsum(t, n)
        if v is None:
            r = None
            break
        if v:
            r[m] = v
    if n == _ANCHOR and r is not None and (
            {m: to_scalar(x) for m, x in r.items()}
            != idp_to_pbw(idp_closed(p, n))._t):
        raise AssertionError(
            f"the vector image of B^({n}) is not the PBW image")
    _PBW_VEC_CACHE[key] = r
    return r


def _theorem_vectors(p, n):
    """comult_theorem(p, n) as {(m1, m2): vector}, from the vectors of the
    images and the legs with one checked sum per key; None when a sum of
    an image or of the assembly is not proved."""
    terms = {}
    for r in range(n + 1):
        image = _pbw_vectors(p, n - r)
        if image is None:
            return None
        leg = _leg_vectors(p, n, r)
        for m1, x in image.items():
            for m2, y in leg.items():
                terms.setdefault((m1, m2), []).append(vmul(x, y))
    out = {}
    for key, t in terms.items():
        # the coefficients of both sides hold Phi_d with d <= n only
        v = vsum(t, n)
        if v is None:
            return None
        if v:
            out[key] = v
    return out


def _comult_agrees(p, n):
    """True when exponent vectors prove comult_theorem(p, n) ==
    comult_direct(p, n); False when a sum is not proved or the vectors
    differ, so that the Scalars must decide."""
    image = _pbw_vectors(p, n)
    return image is not None and _theorem_vectors(p, n) == delta_vectors(image)


def comult_direct(p, n):
    """The coproduct of B^{(n)} computed from first principles: apply the
    coproduct to the PBW image of the closed form."""
    _check_order(p, n)
    return delta(_pbw_closed(p, n))


def _assemble(p, n, legs):
    out = {}
    for r, s in legs:
        for m1, s1 in _pbw_closed(p, n - r)._t.items():
            for m2, s2 in s._t.items():
                _acc(out, (m1, m2), s1 * s2)
    return TensorElement._raw(out)


def comult_theorem(p, n):
    """sum_r (PBW image of B^{(n-r)}) tensor S_{n,r}, from the closed legs."""
    return _assemble(p, n, comult_closed(p, n))


def comult_theorem_reversed(p, n):
    """Same assembly from the reversed legs."""
    return _assemble(p, n, comult_closed_reversed(p, n))
