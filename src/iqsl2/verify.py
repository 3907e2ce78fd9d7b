"""Batch verification suites, structure-constant tables, and element expansion.

Ten named suites re-derive every identity the package implements and compare
the closed formulas against independent computations:

``qidentities``
    Quantum-integer identities checked as exact Laurent-polynomial equalities:
    the pair-sum and pair-product identities, the three-term cross difference,
    the doubling identity, and the degree-six product balance that underpins
    the odd-family multiplication formula. Each family is written once over
    the operations of a domain, and each check is first decided on the
    Kronecker images of its factors, ints at q = 2^K with K wide enough
    for the factors actually used (``_kronecker_images``), where equal
    images mean equal sides. A check whose images differ reruns on
    LaurentPolys, which decide it and write the witness, so the report is
    the one the LaurentPolys alone give; a factor that carries varsigma
    sends the whole suite to LaurentPolys.
``pbw-core``
    The normal-form engine: associativity and confluence on randomized words,
    divided-power merge rules, the cross-relation between the twisted raising
    element and F, h-binomial commutation, the four K-power rational identities
    cleared to polynomial form, and the coproduct (homomorphism property,
    coassociativity on generators, divided-power coproduct expansion).
``mult-even`` / ``mult-odd``
    The closed multiplication formulas of one family against triangular basis
    expansion of the actual polynomial product, plus the closed/recursive
    divided-power oracle and commutativity of the structure constants. All
    three are first decided by interpolation: both sides, divided by a power
    of B, are polynomials in X = B^2 of degree floor(s/2), s the total
    order, compared at the points X_i = q varsigma [i]^2, i <= floor(s/2),
    where every value is a cyclotomic exponent vector (``idp._mult_agrees``,
    ``idp._recursive_points``). A pair (n, m) whose closed terms equal
    those of (m, n) shares its decision, made once. Commutativity needs no
    sum of its own: when the points prove both (m, n) and (n, m), both
    closed sides equal the same product there. Any check the points do not
    prove reruns on Scalars, as in the comult suites.
``comult-even`` / ``comult-odd``
    The closed coproduct formulas against the coproduct of the PBW image,
    computed inside the tensor square. Both sides are first built on
    cyclotomic exponent vectors (``idp._comult_agrees``, ``cyclo``): a check
    passes when every sum is proved and the two sides are equal. Any
    other outcome reruns that check on Scalars, which decide it and write
    the witness of a failure, so the report is the one the Scalars alone
    give.
``fhy-forms``
    The reversed-order coproduct legs (F-powers on the left) against the
    forward legs, term by term.
``proof-recurrences``
    The two-term leg recursion in the order n, in its four parity cases of
    n and r, reducing each coproduct component of one order to components
    of lower order, as exact PBW identities.
``chi``
    The anti-involution: involutivity, anti-multiplicativity, the closed
    images of h and h-binomials, and fixedness of the divided powers at the
    distinguished specialization.
``positivity``
    Integrality and positivity of all structure constants at the
    distinguished specialization, and per-monomial sign profiles of
    weight-evaluated coproduct legs.

In specialized mode every check of the mult and comult suites and the
reversed-leg checks compare after substituting varsigma = q^-1, by one
rule in ``_eq_check`` and ``_map_check``: the generic sides are compared
first and a pass stands, since specialization is a ring map applied to
both sides; only sides that differ are specialized and compared again,
and that comparison writes the witness. Every other check of the first
eight suites compares generic sides in either mode, which ``parameters``
only records; chi and positivity always compare specialized values.

Reports are deterministic: identical invocations produce identical check
lists (the wall-time field is the only exception).  Every failing check
carries a serialized witness (the difference element) sufficient to
reproduce the failure independently.  ``SuiteReport.write_json`` streams
a report to a file check by check, in the bytes of
``json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2)`` plus a
newline, so its memory does not grow with the number of checks.  The
resource ceiling for element suites, tables and expansion is the
``IQSL2_MAX_N`` environment variable (default 24).
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import time
from collections import namedtuple
from itertools import product
from json.encoder import encode_basestring
from types import SimpleNamespace

from ._kernel_py import _pack
from .coeff import LaurentPoly, Scalar
from .cyclo import _width, to_row, to_scalar
from .errors import NegativeInput, NotIntegral, ResourceLimit, UnknownSuite
from .idp import (
    EV,
    ODD,
    PARITIES,
    _check_order,
    _comult_agrees,
    _mult_agrees,
    _mult_closed_terms,
    _pbw_closed,
    _point_values,
    _recursive_points,
    comult_direct,
    comult_theorem,
    comult_theorem_reversed,
    idp_closed,
    idp_recursive,
    mult_closed,
    mult_direct,
    s_component,
    s_component_reversed,
)
from .pbw import UElement, chi, divided_power, u_gen, u_h, u_h_binom, weight_eval
from .qcomb import qbinom, qint, qint_base
from .tensor import TensorElement, delta, expand_left, expand_right

SUITES = (
    "qidentities",
    "pbw-core",
    "mult-even",
    "mult-odd",
    "comult-even",
    "comult-odd",
    "fhy-forms",
    "proof-recurrences",
    "chi",
    "positivity",
)

VARSIGMA_MODES = ("generic", "specialized")

_DEFAULT_CEILING = 24
_RNG_SEED = 264221


def resource_ceiling():
    """Maximum order accepted by element suites, tables and expansion:
    ``IQSL2_MAX_N`` when set, else 24."""
    raw = os.environ.get("IQSL2_MAX_N", "").strip()
    if not raw:
        return _DEFAULT_CEILING
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"IQSL2_MAX_N must be a positive integer, got {raw!r}")
    return int(raw)


def _check_ceiling(what, value):
    ceiling = resource_ceiling()
    if value > ceiling:
        raise ResourceLimit(
            f"{what} {value} exceeds the resource ceiling {ceiling} "
            "(set IQSL2_MAX_N to raise it)"
        )


class CheckResult(namedtuple("CheckResult", "id params passed witness",
                             defaults=(None,))):
    """One verified identity instance."""

    __slots__ = ()

    def to_json_dict(self):
        out = {"id": self.id, "params": list(self.params), "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _json_scalar(v):
    """JSON text of a str, bool, int or finite float, as ``json.dumps``
    writes it with ``ensure_ascii=False``."""
    if isinstance(v, str):
        return encode_basestring(v)
    if v is True or v is False:
        return "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    raise TypeError(f"cannot write {v!r} into a JSON report")


class SuiteReport:
    """Outcome of one suite run; passes iff every check passed."""

    __slots__ = ("suite", "parameters", "checks", "wall_time_s")

    def __init__(self, suite, parameters, checks, wall_time_s):
        self.suite = suite
        self.parameters = parameters
        self.checks = checks
        self.wall_time_s = wall_time_s

    def __repr__(self):
        return (f"SuiteReport(suite={self.suite!r}, "
                f"parameters={self.parameters!r}, checks={self.checks!r}, "
                f"wall_time_s={self.wall_time_s!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.suite, self.parameters, self.checks, self.wall_time_s)
                == (other.suite, other.parameters, other.checks,
                    other.wall_time_s))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def counts(self):
        good = sum(1 for c in self.checks if c.passed)
        return good, len(self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "checks": [c.to_json_dict() for c in self.checks],
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self):
        """``json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2)``."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()[:-1]

    def write_json(self, fh):
        """Write :meth:`to_json` and a newline to the text file ``fh``, one
        check at a time, so that no copy of the report is held in memory."""
        write = fh.write
        write(f'{{\n  "suite": {encode_basestring(self.suite)},\n'
              '  "parameters": ')
        if self.parameters:
            write("{\n    " + ",\n    ".join(
                f"{encode_basestring(k)}: {_json_scalar(v)}"
                for k, v in self.parameters.items()) + "\n  }")
        else:
            write("{}")
        write(',\n  "checks": [')
        sep = "\n"
        for cid, params, passed, witness in self.checks:
            if params:
                params_text = ("[\n        "
                               + ",\n        ".join(map(_json_scalar, params))
                               + "\n      ]")
            else:
                params_text = "[]"
            if witness is None:
                witness_text = ""
            else:
                witness_text = (',\n      "witness": '
                                + encode_basestring(witness))
            write(f'{sep}    {{\n      "id": {encode_basestring(cid)},\n'
                  f'      "params": {params_text},\n'
                  f'      "pass": {_json_scalar(passed)}{witness_text}\n    }}')
            sep = ",\n"
        write("\n  ]" if self.checks else "]")
        write(f',\n  "wall_time_s": {_json_scalar(self.wall_time_s)}\n}}\n')


_SC_ZERO = Scalar.zero()
_QVS = Scalar.vs_power(1, 1)


def _eq_check(checks, cid, params, lhs, rhs, mode="generic"):
    """Record an equality check whose witness is the serialized difference.
    A generic pass stands in either mode; in specialized mode sides that
    differ are specialized and compared again, which decides the check and
    writes its witness (module docstring)."""
    passed = lhs == rhs
    if not passed and mode == "specialized":
        lhs, rhs = lhs.specialize_varsigma(), rhs.specialize_varsigma()
        passed = lhs == rhs
    checks.append(CheckResult(cid, tuple(params), passed,
                              None if passed else str(lhs - rhs)))


def _map_check(checks, cid, params, lhs, rhs, key_prefix, mode="generic"):
    """Record an equality check of key -> Scalar maps, missing entries
    counting as zero; the witness lists each mismatched key after
    ``key_prefix``. The mode acts on each key as in ``_eq_check``."""
    bad = []
    for k in sorted(set(lhs) | set(rhs)):
        a = lhs.get(k, _SC_ZERO)
        b = rhs.get(k, _SC_ZERO)
        if not (a == b):
            if mode == "specialized":
                a, b = a.specialize_varsigma(), b.specialize_varsigma()
                if a == b:
                    continue
            bad.append(f"{key_prefix}{k}: {a} != {b}")
    checks.append(CheckResult(cid, tuple(params), not bad,
                              "; ".join(bad) if bad else None))


# ---------------------------------------------------------------------------
# qidentities
# ---------------------------------------------------------------------------

def _products(factor):
    """A memoized ``prod(a, b) = factor(a) * factor(b)`` for the checks of
    one side of one identity, where ``factor(n)`` is [n] for n >= 0.

    Each product is formed once, keyed on (|a|, |b|) with |a| <= |b|, and
    negated when exactly one of a, b is negative, since [-n] = -[n].
    """
    memo = {}

    def prod(a, b):
        x, y = abs(a), abs(b)
        if x > y:
            x, y = y, x
        p = memo.get((x, y))
        if p is None:
            p = memo[x, y] = factor(x) * factor(y)
        return -p if (a < 0) != (b < 0) else p

    return prod


def _qidentity_families(g_pair, g_cross, g_balance):
    """The five identity families as (id, parameter tuples, sides), with
    ``sides(d, lprod, rprod, *params)`` the (lhs, rhs) of one check in the
    domain d, lprod and rprod the product memos of its two sides.

    A domain has the operations the checks are written in: ``qint(n)``,
    [n]; ``qint_base(n, m)``, [n] in base q^m; ``products()``, a new
    product memo of one side of an identity; and ``unit``, which lines a
    side of one factor up with a side of two.
    """
    pair = range(-g_pair, g_pair + 1)
    cross = range(-g_cross, g_cross + 1)

    # [n+m] + [n-m] = [n] * [2] in base q^m (undefined at m = 0, where the
    # base collapses to 1)
    def pair_sum(d, lprod, rprod, n, m):
        return ((d.qint(n + m) + d.qint(n - m)) * d.unit,
                d.qint(n) * d.qint_base(2, m))

    # [n+m][n-m] = [n]^2 - [m]^2
    def pair_product(d, lprod, rprod, n, m):
        return lprod(n + m, n - m), rprod(n, n) - rprod(m, m)

    # [m][m+n] - [l][l+n] = [m-l][m+l+n]
    def cross_difference(d, lprod, rprod, m, n, l):
        return lprod(m, m + n) - lprod(l, l + n), rprod(m - l, m + l + n)

    # [2n] = [2] * [n] in base q^2
    def doubling(d, lprod, rprod, n):
        return d.qint(2 * n) * d.unit, d.qint(2) * d.qint_base(n, 2)

    # the degree-six balance behind the odd-family product formula; only
    # the squares on the lhs repeat
    def product_balance(d, lprod, rprod, l, k, a):
        qint = d.qint
        lhs = (
            qint(2 * k + 2 * a - 2 * l + 2)
            * qint(2 * a - 2 * l + 2)
            * qint(2 * k - 2 * l + 2)
            + lprod(2 * k + 2 * a - 2 * l + 3, 2 * k + 2 * a - 2 * l + 3)
            * qint(2 * l)
            - lprod(2 * k + 1, 2 * k + 1) * qint(2 * l)
        )
        rhs = (qint(2 * a - 2 * l + 2) * qint(2 * k + 2)
               * qint(2 * k + 2 * a + 2))
        return lhs, rhs

    return (
        ("qint-pair-sum", ((n, m) for n in pair for m in pair if m),
         pair_sum),
        ("qint-pair-product", product(pair, repeat=2), pair_product),
        ("qint-cross-difference", product(cross, repeat=3), cross_difference),
        ("qint-doubling", ((n,) for n in pair), doubling),
        ("qint-product-balance", product(range(g_balance + 1), repeat=3),
         product_balance),
    )


def _kronecker_images(factors):
    """(images, unit) for the dict ``factors`` of Laurent polynomials in q:
    images[key] = V(p) = p(2^K) 2^(K S) for p = factors[key], and the unit
    2^(K S); None when a factor carries varsigma.

    S is the largest |q-exponent| of the factors, so each V(p) is the value
    at q = 2^K of the polynomial q^S p, and a product of d images is that
    of q^(d S) times the product; multiplying by the unit raises d by one.
    N is the largest 1-norm of the factors, and K, a multiple of 16, has
    2^(K-1) > 4 N^3. The two sides of a qidentities check are signed sums
    of at most 4 products in all, each of at most 3 factors, lined up to
    one d by the unit, so the image of lhs - rhs is the value at 2^K of
    the polynomial q^(d S) (lhs - rhs), whose coefficients are at most
    4 N^3 (||fg||_inf <= ||f||_1 ||g||_1). Those coefficients are its
    balanced base-2^K digits, so equal images mean equal sides. S, N and K
    come from the factors themselves, not from the formula for [n], so
    that a corrupted factor widens them.
    """
    s = norm = 0
    for p in factors.values():
        if not p.is_varsigma_free():
            return None
        for i, _, c in p.terms():
            s = max(s, abs(i))
        norm = max(norm, sum(abs(c) for _, _, c in p.terms()))
    k = _width(4 * norm ** 3)
    images = {key: _pack({i + s: c for i, _, c in p.terms()}, k)
              for key, p in factors.items()}
    return images, 1 << (k * s)


def _qint_images(g_pair, g_cross, g_balance):
    """The domain of the Kronecker images (``_kronecker_images``) of every
    factor of the checks of ``_qidentity_families``, or None when a factor
    carries varsigma. [n] is packed for every n the grids reach, directly
    or through a product memo, and [n] in base q^m for each (n, m) they
    use; a factor outside them raises KeyError, never a wrong verdict."""
    top = max(2 * g_pair, 3 * g_cross, 4 * g_balance + 3)
    pair = range(-g_pair, g_pair + 1)
    factors = {n: qint(n) for n in range(-2 * g_pair, top + 1)}
    factors.update({(2, m): qint_base(2, m) for m in pair if m})
    factors.update({(n, 2): qint_base(n, 2) for n in pair})
    packed = _kronecker_images(factors)
    if packed is None:
        return None
    images, unit = packed
    get = images.__getitem__
    return SimpleNamespace(qint=get, qint_base=lambda n, m: images[n, m],
                           products=lambda: _products(get), unit=unit)


def _suite_qidentities(bound, mode):
    g_pair = min(20, bound)
    g_cross = min(12, bound)
    g_balance = min(8, bound)
    # Each check is decided on the int images of its factors, and reruns
    # on LaurentPolys only where the images differ (or on every check when
    # a factor carries varsigma): that rerun decides it and writes its
    # witness, so the report is the one the LaurentPolys alone give.
    polys = SimpleNamespace(qint=qint, qint_base=qint_base,
                            products=lambda: _products(qint), unit=1)
    images = _qint_images(g_pair, g_cross, g_balance)
    checks = []
    for cid, grid, sides in _qidentity_families(g_pair, g_cross, g_balance):
        fast = slow = None
        if images is not None:
            fast = images, images.products(), images.products()
        for params in grid:
            if fast is not None:
                lhs, rhs = sides(*fast, *params)
                if lhs == rhs:
                    checks.append(CheckResult(cid, params, True))
                    continue
            if slow is None:
                slow = polys, polys.products(), polys.products()
            lhs, rhs = sides(*slow, *params)
            _eq_check(checks, cid, params, lhs, rhs)

    parameters = {
        "pair_grid": g_pair,
        "cross_grid": g_cross,
        "balance_grid": g_balance,
        "varsigma": mode,
    }
    return parameters, checks


# ---------------------------------------------------------------------------
# pbw-core
# ---------------------------------------------------------------------------

def _x_poly(qexp, xexp=0, c=1):
    """c * q^qexp * X^xexp in the one-variable polynomial ring over Laurent q."""
    return LaurentPoly.monomial(qexp, xexp, c)


def _x_line(qexp):
    """q^qexp * X - 1."""
    return _x_poly(qexp, 1) - LaurentPoly.one()


def _kpoly_even_even(l, r, c, a):
    """Leg-recursion scalar identity, even order, even r, cleared of its
    X-denominator."""
    den = _x_line(4 * c - 2 * r)
    lhs = (
        (qint(2 * l - r) * _x_poly(r - 2 * a) + qint(a) * _x_poly(2 * l - a))
        * den
        + qint(r - 2 * c - a) * _x_poly(2 * c + r - 2 * l - a)
        * _x_line(-2 * r)
        + qint(2 * c) * _x_poly(2 * c - 2 * l) * _x_line(-2 * a)
    )
    return lhs, qint(2 * l) * den


def _kpoly_even_odd(l, r, c, a):
    """Leg-recursion scalar identity, even order, odd r."""
    den = _x_line(4 * c - 2 * r + 2)
    num = _x_line(2 - 2 * r)
    lhs = (
        qint(2 * l - r) * _x_poly(r - 2 * a) * num
        + qint(a) * _x_poly(2 * l - a) * den
        + qint(r - 2 * c - a) * _x_poly(2 * c + r - 2 * l - a) * num
        + qint(2 * c) * _x_poly(2 * c - 2 * l) * _x_line(-2 * a)
        + qint(2 * l - r + 1) * _x_poly(1 - r - 2 * a)
        * (_x_poly(4 * c) - LaurentPoly.one()) * _x_poly(0, 1)
    )
    return lhs, qint(2 * l) * den


def _kpoly_odd_even(l, r, c, a):
    """Leg-recursion scalar identity, odd order, even r; cleared of both the
    X-denominator and the extra q^2 - 1 factor."""
    den = _x_line(4 - 2 * r)
    qden = _x_poly(2) - LaurentPoly.one()
    cyc = _x_poly(4 * c) - LaurentPoly.one()
    lhs = (
        qint(2 * l + 1 - r) * _x_poly(r - 4 * c - 2 * a) * den * qden
        + qint(2 * l + 2 - r) * _x_poly(-4 * c - r + 3 - 2 * a) * cyc
        * _x_poly(0, 1) * qden
        + qint(a) * _x_poly(-4 * c - a + 2 * l + 1)
        * _x_line(4 * c + 4 - 2 * r) * qden
        + qint(r - 2 * c - a) * _x_poly(r - a - 2 * c - 1 - 2 * l) * den * qden
        + _x_poly(-4 * c + 2 - 2 * l) * _x_line(-2 * a) * cyc
        - qint(2 * l) * _x_poly(-4 * c + 1) * cyc * qden
    )
    return lhs, qint(2 * l + 1) * den * qden


def _kpoly_odd_odd(l, r, c, a):
    """Leg-recursion scalar identity, odd order, odd r."""
    den = _x_line(2 - 2 * r)
    num = _x_line(4 * c + 2 - 2 * r)
    cyc = _x_poly(4 * c) - LaurentPoly.one()
    lhs = (
        qint(2 * l + 1 - r) * _x_poly(r - 4 * c - 2 * a) * num
        + qint(a) * _x_poly(1 + 2 * l - 4 * c - a) * num
        + qint(r - 2 * c - a) * _x_poly(-2 * c + r - 1 - 2 * l - a) * den
        + qint(2 * c) * _x_poly(-2 * c + 1 - 2 * l) * _x_line(-2 * a)
        - qint(2 * l) * _x_poly(-4 * c + 1) * cyc
    )
    return lhs, qint(2 * l + 1) * den


_KPOLY_CASES = (
    ("kpoly-even-even", _kpoly_even_even),
    ("kpoly-even-odd", _kpoly_even_odd),
    ("kpoly-odd-even", _kpoly_odd_even),
    ("kpoly-odd-odd", _kpoly_odd_odd),
)


def _random_uelement(rng, *, varsigma_free=False, terms=3, span=2):
    x = UElement.zero()
    for _ in range(rng.randint(1, terms)):
        a = rng.randint(0, span)
        b = rng.randint(-span, span)
        c = rng.randint(0, span)
        qe = rng.randint(-3, 3)
        je = 0 if varsigma_free else rng.randint(0, 2)
        coeff = Scalar.vs_power(je, qe)
        if rng.random() < 0.5:
            coeff = -coeff
        x = x + UElement.monomial(a, b, c, coeff)
    return x


def _suite_pbw_core(bound, mode):
    checks = []
    rng = random.Random(_RNG_SEED)
    merge_bound = bound
    comf_bound = min(bound, 8)
    h_grid = min(bound, 4)
    k_grid = min(bound, 12)

    # K * K^-1 = 1
    _eq_check(
        checks, "k-inverse", (), u_gen("K") * u_gen("Kinv"), UElement.one()
    )

    # associativity on randomized triples
    for i in range(12):
        x = _random_uelement(rng)
        y = _random_uelement(rng)
        z = _random_uelement(rng)
        _eq_check(checks, "associativity", (i,), (x * y) * z, x * (y * z))

    # confluence: random generator words multiplied in two association orders
    gens = ("E", "F", "K", "Kinv")
    for i in range(12):
        word = [u_gen(rng.choice(gens)) for _ in range(rng.randint(3, 6))]
        left = UElement.one()
        for w in word:
            left = left * w
        right = UElement.one()
        for w in reversed(word):
            right = w * right
        _eq_check(checks, "confluence", (i,), left, right)

    # divided-power merge: X^(m) X^(n) = qbinom(m+n, n) X^(m+n)
    for name, cid in (("F", "merge-f"), ("E", "merge-e")):
        for m in range(merge_bound + 1):
            for n in range(merge_bound + 1 - m):
                lhs = divided_power(name, m) * divided_power(name, n)
                rhs = divided_power(name, m + n).scale(
                    Scalar(qbinom(m + n, n))
                )
                _eq_check(checks, cid, (m, n), lhs, rhs)

    # cross-relation: F Echeck - q^-2 Echeck F = (q varsigma) h
    ec = u_gen("Echeck")
    f = u_gen("F")
    lhs = f * ec - (ec * f).scale(Scalar.q_power(-2))
    _eq_check(checks, "cross-relation", (), lhs, u_h().scale(_QVS))

    # h-binomial commutation past F and past Echeck
    for a in range(-h_grid, h_grid + 1):
        for n in range(h_grid + 1):
            hb = u_h_binom(a, n)
            _eq_check(
                checks, "hbinom-past-f", (a, n),
                hb * f, f * u_h_binom(a + 1, n),
            )
            _eq_check(
                checks, "hbinom-past-echeck", (a, n),
                hb * ec, ec * u_h_binom(a - 1, n),
            )

    # the four K-power scalar identities, cleared to polynomial form
    for cid, fn in _KPOLY_CASES:
        for l in range(1, k_grid // 2 + 1):
            for r in range(1, 2 * l + 1):
                for c in range(r // 2 + 1):
                    for a in range(r - 2 * c + 1):
                        lhs, rhs = fn(l, r, c, a)
                        _eq_check(checks, cid, (l, r, c, a), lhs, rhs)

    # coproduct is an algebra homomorphism
    for i in range(8):
        x = _random_uelement(rng, terms=2, span=2)
        y = _random_uelement(rng, terms=2, span=2)
        _eq_check(
            checks, "delta-homomorphism", (i,),
            delta(x * y), delta(x) * delta(y),
        )

    # coassociativity on generators
    for name in ("E", "F", "K", "Kinv"):
        d = delta(u_gen(name))
        _map_check(checks, "coassociativity", (name,),
                   expand_left(d), expand_right(d), "")

    # coproduct of divided F-powers
    for n in range(comf_bound + 1):
        lhs = delta(divided_power("F", n))
        rhs = TensorElement.zero()
        for a in range(n + 1):
            right = divided_power("F", n - a) * UElement.monomial(0, -a, 0)
            rhs = rhs + TensorElement.from_pair(
                divided_power("F", a), right
            ).scale(Scalar.q_power(a * (n - a)))
        _eq_check(checks, "comult-divided-f", (n,), lhs, rhs)

    parameters = {
        "bound": merge_bound,
        "comult_bound": comf_bound,
        "hbinom_grid": h_grid,
        "kpoly_grid": k_grid,
        "varsigma": mode,
    }
    return parameters, checks


# ---------------------------------------------------------------------------
# multiplication suites
# ---------------------------------------------------------------------------

def _suite_mult(parity, bound, mode):
    checks = []
    # the values of the closed divided powers at the points, and those the
    # recursion gives; the Scalars decide what the points do not prove, and
    # write any witness
    values = _point_values(parity, bound)
    recursive = _recursive_points(parity, bound)

    for n in range(bound + 1):
        # degree floor(n/2) in X: its floor(n/2) + 1 points decide
        if (n < len(recursive)
                and recursive[n][:n // 2 + 1] == values[n][:n // 2 + 1]):
            checks.append(CheckResult("divided-power-oracle", (n,), True))
            continue
        _eq_check(
            checks, "divided-power-oracle", (n,),
            idp_closed(parity, n), idp_recursive(parity, n), mode,
        )

    agreed = set()
    # the decision of each distinct (min(m, n), max(m, n), closed terms),
    # which is all it reads of the pair (``_mult_agrees``): (n, m) reuses
    # that of (m, n) when their closed terms are equal
    decided = {}
    for m in range(bound + 1):
        for n in range(bound + 1 - m):
            terms = _mult_closed_terms(parity, m, n)
            key = (min(m, n), max(m, n),
                   tuple((d, tuple(xs)) for d, xs in terms.items()))
            ok = decided.get(key)
            if ok is None:
                ok = decided[key] = _mult_agrees(terms, m, n, values)
            # a generic pass stands in specialized mode (``_map_check``)
            if ok:
                agreed.add((m, n))
                checks.append(CheckResult("mult-closed", (m, n), True))
                continue
            _map_check(checks, "mult-closed", (m, n),
                       mult_direct(parity, m, n), mult_closed(parity, m, n),
                       "degree ", mode)

    for m in range(bound + 1):
        for n in range(m, bound + 1 - m):
            # both closed sides equal the product B^{(m)} B^{(n)} at the
            # floor((m+n)/2) + 1 points that decide their degree in X
            if (m, n) in agreed and (n, m) in agreed:
                checks.append(CheckResult("mult-symmetry", (m, n), True))
                continue
            _map_check(
                checks, "mult-symmetry", (m, n),
                mult_closed(parity, m, n), mult_closed(parity, n, m),
                "degree ", mode,
            )

    parameters = {"bound": bound, "family": parity, "varsigma": mode}
    return parameters, checks


# ---------------------------------------------------------------------------
# comultiplication suites
# ---------------------------------------------------------------------------

def _suite_comult(parity, bound, mode):
    checks = []
    for n in range(bound + 1):
        # a generic pass stands in specialized mode (``_eq_check``); the
        # Scalars decide what the vectors do not prove, and write any witness
        if _comult_agrees(parity, n):
            checks.append(CheckResult("comult-theorem", (n,), True))
            continue
        _eq_check(checks, "comult-theorem", (n,), comult_theorem(parity, n),
                  comult_direct(parity, n), mode)
    parameters = {"bound": bound, "family": parity, "varsigma": mode}
    return parameters, checks


def _suite_fhy(bound, mode):
    checks = []
    for parity in PARITIES:
        for n in range(bound + 1):
            for r in range(n + 1):
                _eq_check(checks, "reversed-leg", (parity, n, r),
                          s_component_reversed(parity, n, r),
                          s_component(parity, n, r), mode)
    parameters = {"bound": bound, "varsigma": mode}
    return parameters, checks


# ---------------------------------------------------------------------------
# proof recurrences
# ---------------------------------------------------------------------------

def _suite_recurrences(bound, mode):
    checks = []
    kinv = UElement.monomial(0, -1, 0)
    ef = u_gen("Echeck") + u_gen("F")

    def s(n, r):
        # order -1 appears formally at n = 1, always multiplied by a
        # vanishing quantum integer
        if n < 0:
            return UElement.zero()
        return s_component(EV, n, r)

    # [n] S(n,r) = [n-r] K^-1 S(n-1,r) + (Echeck + F) S(n-1,r-1)
    #     - [n odd] [n-1] q varsigma S(n-2,r-2)
    #     + [n+r odd] [n-r+1] q varsigma K^-1 S(n-1,r-2),
    # even orders first
    even_odd = ("even", "odd")
    for n in (*range(2, bound + 1, 2), *range(1, bound + 1, 2)):
        for r in range(n + 3):
            lhs = s(n, r).scale(Scalar(qint(n)))
            rhs = (kinv * s(n - 1, r)).scale(Scalar(qint(n - r))) \
                + ef * s(n - 1, r - 1)
            if n % 2:
                rhs = rhs - s(n - 2, r - 2).scale(Scalar(qint(n - 1)) * _QVS)
            if (n + r) % 2:
                rhs = rhs + (kinv * s(n - 1, r - 2)).scale(
                    Scalar(qint(n - r + 1)) * _QVS
                )
            _eq_check(checks, f"leg-recursion-{even_odd[n % 2]}-r-"
                      f"{even_odd[r % 2]}", (n, r), lhs, rhs)

    parameters = {"bound": bound, "varsigma": mode}
    return parameters, checks


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------

def _suite_chi(bound, mode):
    checks = []
    rng = random.Random(_RNG_SEED)
    h_grid = 4

    for i in range(12):
        x = _random_uelement(rng, varsigma_free=True)
        _eq_check(checks, "chi-involution", (i,), chi(chi(x)), x)

    for i in range(12):
        x = _random_uelement(rng, varsigma_free=True, terms=2)
        y = _random_uelement(rng, varsigma_free=True, terms=2)
        _eq_check(
            checks, "chi-antihomomorphism", (i,),
            chi(x * y), chi(y) * chi(x),
        )

    _eq_check(checks, "chi-h", (), chi(u_h()), u_h().scale(
        Scalar.from_int(-1) * Scalar.q_power(2)
    ))

    ec_special = UElement.monomial(1, -1, 0, Scalar.q_power(-1))
    _eq_check(checks, "chi-twisted-raise", (), chi(ec_special), ec_special)

    for a in range(-h_grid, h_grid + 1):
        for n in range(h_grid + 1):
            sign = Scalar.from_int(-1 if n % 2 else 1)
            rhs = u_h_binom(1 - a - n, n).scale(
                sign * Scalar.q_power(2 * n * (n + 1))
            )
            _eq_check(checks, "chi-hbinom", (a, n), chi(u_h_binom(a, n)), rhs)

    for parity in PARITIES:
        for n in range(bound + 1):
            img = _pbw_closed(parity, n).specialize_varsigma()
            _eq_check(checks, "chi-fixed", (parity, n), chi(img), img)

    parameters = {"bound": bound, "hbinom_grid": h_grid,
                  "varsigma": "specialized"}
    return parameters, checks


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

def _laurent_sign(p):
    """+1 / -1 when all coefficients share a sign, 0 for zero, None mixed.

    The weight checks take it of ``s.num * s.den`` for a varsigma-free
    Scalar s: a sign found is the sign of s at every real q > 0, and mixed
    coefficients leave it undecided, printed as "?".
    """
    if p.is_zero():
        return 0
    if p.is_nonneg():
        return 1
    if (-p).is_nonneg():
        return -1
    return None


def _suite_positivity(bound, mode):
    checks = []
    weight_bound = min(bound, 6)

    for parity in PARITIES:
        for m in range(bound + 1):
            for n in range(bound + 1 - m):
                bad = []
                for d, s in sorted(mult_closed(parity, m, n).items()):
                    sp = s.specialize_varsigma()
                    try:
                        lp = sp.to_laurent()
                    except NotIntegral:
                        bad.append(f"degree {d}: not integral: {sp}")
                        continue
                    if not lp.is_nonneg():
                        bad.append(f"degree {d}: negative terms: {lp}")
                checks.append(
                    CheckResult("structure-positivity", (parity, m, n),
                                not bad, "; ".join(bad) if bad else None)
                )

    for parity in PARITIES:
        res = 0 if parity == EV else 1
        weights = [m for m in range(-6, 7) if abs(m) % 2 == res]
        for n in range(weight_bound + 1):
            for r in range(n + 1):
                leg = s_component(parity, n, r).specialize_varsigma()
                for m in weights:
                    w = weight_eval(leg, m)
                    profile = []
                    ok = True
                    for (ae, be, ce) in sorted(w.support()):
                        c = w.coeff(ae, be, ce)
                        sgn = _laurent_sign(c.num * c.den)
                        if sgn is None:
                            ok = False
                            sym = "?"
                        else:
                            sym = {1: "+", -1: "-", 0: "0"}[sgn]
                        profile.append(f"E^{ae}*F^{ce}:{sym}")
                    checks.append(
                        CheckResult("weight-sign-profile", (parity, n, r, m),
                                    ok, " ".join(profile) if profile else "0")
                    )

    parameters = {"bound": bound, "weight_bound": weight_bound,
                  "weight_span": 6, "varsigma": "specialized"}
    return parameters, checks


# ---------------------------------------------------------------------------
# suite registry and runner
# ---------------------------------------------------------------------------

_ELEMENT_DEFAULTS = {
    "pbw-core": {"generic": 12, "specialized": 12},
    "mult-even": {"generic": 12, "specialized": 16},
    "mult-odd": {"generic": 12, "specialized": 16},
    "comult-even": {"generic": 6, "specialized": 8},
    "comult-odd": {"generic": 6, "specialized": 8},
    "fhy-forms": {"generic": 6, "specialized": 6},
    "proof-recurrences": {"generic": 8, "specialized": 8},
    "chi": {"generic": 10, "specialized": 10},
    "positivity": {"generic": 16, "specialized": 16},
}

_SUITE_FUNCS = {
    "qidentities": _suite_qidentities,
    "pbw-core": _suite_pbw_core,
    "mult-even": lambda bound, mode: _suite_mult(EV, bound, mode),
    "mult-odd": lambda bound, mode: _suite_mult(ODD, bound, mode),
    "comult-even": lambda bound, mode: _suite_comult(EV, bound, mode),
    "comult-odd": lambda bound, mode: _suite_comult(ODD, bound, mode),
    "fhy-forms": _suite_fhy,
    "proof-recurrences": _suite_recurrences,
    "chi": _suite_chi,
    "positivity": _suite_positivity,
}


def run_suite(name, bound=None, varsigma_mode="generic"):
    """Run one verification suite and return its report.

    ``bound`` replaces the suite's default grid bound for element-level
    suites, subject to the resource ceiling; for ``qidentities`` the
    per-identity grids are fixed caps and ``bound`` can only shrink them.
    ``varsigma_mode`` is ``generic`` or ``specialized``.  In specialized
    mode the checks of the mult and comult suites and the reversed-leg
    checks compare after substituting the inverse-q value, with a generic
    pass standing; every other check compares generic sides, and the mode
    also selects the default bound.  The ``chi`` and ``positivity`` suites
    are inherently specialized and ignore the mode.
    """
    if name not in _SUITE_FUNCS:
        raise UnknownSuite(
            f"unknown suite {name!r}; expected one of {', '.join(SUITES)}"
        )
    if varsigma_mode not in VARSIGMA_MODES:
        raise ValueError(
            f"unknown varsigma mode {varsigma_mode!r}; "
            f"expected one of {', '.join(VARSIGMA_MODES)}"
        )
    if name == "qidentities":
        if bound is None:
            bound = 20
        if bound < 1:
            raise ValueError("bound must be >= 1")
    else:
        if bound is None:
            bound = _ELEMENT_DEFAULTS[name][varsigma_mode]
        if bound < 1:
            raise ValueError("bound must be >= 1")
        _check_ceiling("bound", bound)
    start = time.perf_counter()
    parameters, checks = _SUITE_FUNCS[name](bound, varsigma_mode)
    wall = time.perf_counter() - start
    return SuiteReport(name, parameters, checks, round(wall, 3))


# ---------------------------------------------------------------------------
# structure-constant tables
# ---------------------------------------------------------------------------

TABLE_COLUMNS = ("family", "m", "n", "l", "coefficient", "integral",
                 "positive")


def table_rows(family, max_total_degree):
    """Structure-constant rows (family, m, n, l, coefficient, integral,
    positive) for all m + n <= max_total_degree, in (m, n, l) order.

    ``l`` is the drop index: the row's coefficient multiplies the divided
    power of degree m + n - 2l.  ``integral`` and ``positive`` report whether
    the coefficient, specialized at the inverse-q value, is a Laurent
    polynomial with integer (respectively nonnegative) coefficients.

    The rows are the terms of ``mult_closed``, written from its vectors
    (``idp._mult_closed_terms``). A single ratio is written with no Scalar
    (``cyclo.to_row``); only a sum of two ratios (family "odd", m and n
    odd) is added, specialized and divided as Scalars. Each distinct tuple
    of ratios is written once, a sum that vanishes as no row.
    """
    if family not in PARITIES:
        raise ValueError(f"unknown family {family!r}")
    if max_total_degree < 0:
        raise NegativeInput("max_total_degree must be >= 0")
    _check_ceiling("max_total_degree", max_total_degree)
    rows = []
    # the row of each distinct tuple of ratios, None for no row; at order
    # 24 fewer than half of the single ratios and 70 of the 125 pairs of
    # family "odd" are distinct
    written = {}
    for m in range(max_total_degree + 1):
        for n in range(max_total_degree + 1 - m):
            # degrees descending, so l ascending
            for d, terms in _mult_closed_terms(family, m, n).items():
                key = tuple(terms)
                if key not in written:
                    written[key] = _table_row(terms)
                row = written[key]
                if row is not None:
                    rows.append((family, m, n, (m + n - d) // 2, *row))
    return rows


def _table_row(terms):
    """(coefficient, integral, positive) of the sum of the nonzero ratios
    ``terms``, one or two, as ``table_rows`` reports it; None when the sum
    vanishes."""
    if len(terms) == 1:
        return to_row(terms[0])
    s = to_scalar(terms[0]) + to_scalar(terms[1])
    if s.is_zero():
        return None
    try:
        lp = s.specialize_varsigma().to_laurent()
    except NotIntegral:
        return str(s), False, False
    return str(s), True, lp.is_nonneg()


_FLAGS = ("false", "true")


def emit_table(family, max_total_degree, fmt="csv"):
    """Serialize the structure-constant table as CSV or JSON text. No
    field holds a comma, a quote or a line break, so none is quoted."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    rows = table_rows(family, max_total_degree)
    if fmt == "csv":
        lines = [",".join(TABLE_COLUMNS)]
        lines += [f"{f},{m},{n},{l},{c},{_FLAGS[i]},{_FLAGS[p]}"
                  for f, m, n, l, c, i, p in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "family": family,
        "max_total_degree": max_total_degree,
        "rows": [
            {
                "family": row[0],
                "m": row[1],
                "n": row[2],
                "l": row[3],
                "coefficient": row[4],
                "integral": row[5],
                "positive": row[6],
            }
            for row in rows
        ],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


# ---------------------------------------------------------------------------
# element expansion
# ---------------------------------------------------------------------------

def expand_idp(parity, n, basis="B"):
    """Serialize a divided power, either as a polynomial in B or in PBW form."""
    if basis not in ("B", "pbw"):
        raise ValueError(f"unknown basis {basis!r}")
    _check_order(parity, n)
    _check_ceiling("n", n)
    if basis == "B":
        return str(idp_closed(parity, n))
    return str(_pbw_closed(parity, n))


def expand_comult(parity, n, form="theorem"):
    """Serialize a coproduct in the requested presentation.

    ``theorem`` assembles the closed formula, ``fhy`` the reversed-order
    closed formula, ``direct`` computes the coproduct of the PBW image; all
    three serialize canonically, so equal presentations are byte-identical.
    """
    _check_ceiling("n", n)
    if form == "theorem":
        return str(comult_theorem(parity, n))
    if form == "fhy":
        return str(comult_theorem_reversed(parity, n))
    if form == "direct":
        return str(comult_direct(parity, n))
    raise ValueError(f"unknown form {form!r}")
