"""Batch verification suites, structure-constant tables, and element expansion.

Ten named suites re-derive every identity the package implements and compare
the closed formulas against independent computations:

``qidentities``
    Quantum-integer identities checked as exact Laurent-polynomial equalities:
    the pair-sum and pair-product identities, the three-term cross difference,
    the doubling identity, and the degree-six product balance that underpins
    the odd-family multiplication formula.
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
    ``idp._recursive_points``). Commutativity needs no sum of its own: when
    the points prove both (m, n) and (n, m), both closed sides equal the
    same product there. Any check the points do not prove reruns on
    Scalars, as in the comult suites. In specialized mode a generic pass
    stands, since specialization is a ring map applied to both sides.
``comult-even`` / ``comult-odd``
    The closed coproduct formulas against the coproduct of the PBW image,
    computed inside the tensor square. Both sides are first built on
    cyclotomic exponent vectors (``idp._comult_agrees``, ``cyclo``): a check
    passes when every conversion and every sum is proved and the two sides
    are equal. Any other outcome reruns that check on Scalars, which decide
    it and write the witness of a failure, so the report is the one the
    Scalars alone give. In specialized mode a generic pass stands, since
    the denominators are varsigma-free.
``fhy-forms``
    The reversed-order coproduct legs (F-powers on the left) against the
    forward legs, term by term.
``proof-recurrences``
    The four leg recurrences that reduce each coproduct component of one
    order to components of lower order, as exact PBW identities.
``chi``
    The anti-involution: involutivity, anti-multiplicativity, the closed
    images of h and h-binomials, and fixedness of the divided powers at the
    distinguished specialization.
``positivity``
    Integrality and positivity of all structure constants at the
    distinguished specialization, and per-monomial sign profiles of
    weight-evaluated coproduct legs.

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

import csv
import io
import json
import math
import os
import random
import time
from collections import namedtuple
from json.encoder import encode_basestring

from .coeff import LaurentPoly, Scalar
from .errors import NegativeInput, NotIntegral, ResourceLimit, UnknownSuite
from .idp import (
    EV,
    ODD,
    PARITIES,
    _check_order,
    _comult_agrees,
    _mult_agrees,
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
from .tensor import TensorElement, delta, delta_gen, expand_left, expand_right

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


def _eq_check(checks, cid, params, lhs, rhs):
    """Record an equality check whose witness is the serialized difference."""
    if lhs == rhs:
        checks.append(CheckResult(cid, tuple(params), True))
    else:
        diff = lhs - rhs
        checks.append(CheckResult(cid, tuple(params), False, str(diff)))


def _map_check(checks, cid, params, lhs, rhs, key_prefix):
    """Record an equality check of key -> Scalar maps, missing entries
    counting as zero; the witness lists each mismatched key after
    ``key_prefix``."""
    bad = []
    for k in sorted(set(lhs) | set(rhs)):
        a = lhs.get(k, _SC_ZERO)
        b = rhs.get(k, _SC_ZERO)
        if not (a == b):
            bad.append(f"{key_prefix}{k}: {a} != {b}")
    checks.append(CheckResult(cid, tuple(params), not bad,
                              "; ".join(bad) if bad else None))


def _specialize_map(m):
    return {d: s.specialize_varsigma() for d, s in m.items()}


# ---------------------------------------------------------------------------
# qidentities
# ---------------------------------------------------------------------------

def _products():
    """A memoized ``prod(a, b) = qint(a) * qint(b)`` for the checks of one
    side of one identity.

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
            p = memo[x, y] = qint(x) * qint(y)
        return -p if (a < 0) != (b < 0) else p

    return prod


def _suite_qidentities(bound, mode):
    g_pair = min(20, bound)
    g_cross = min(12, bound)
    g_balance = min(8, bound)
    checks = []

    # [n+m] + [n-m] = [n] * [2] in base q^m (undefined at m = 0, where the
    # base collapses to 1)
    for n in range(-g_pair, g_pair + 1):
        for m in range(-g_pair, g_pair + 1):
            if m == 0:
                continue
            lhs = qint(n + m) + qint(n - m)
            rhs = qint(n) * qint_base(2, m)
            _eq_check(checks, "qint-pair-sum", (n, m), lhs, rhs)

    # [n+m][n-m] = [n]^2 - [m]^2
    lprod, rprod = _products(), _products()
    for n in range(-g_pair, g_pair + 1):
        for m in range(-g_pair, g_pair + 1):
            lhs = lprod(n + m, n - m)
            rhs = rprod(n, n) - rprod(m, m)
            _eq_check(checks, "qint-pair-product", (n, m), lhs, rhs)

    # [m][m+n] - [l][l+n] = [m-l][m+l+n]
    lprod, rprod = _products(), _products()
    for m in range(-g_cross, g_cross + 1):
        for n in range(-g_cross, g_cross + 1):
            for l in range(-g_cross, g_cross + 1):
                lhs = lprod(m, m + n) - lprod(l, l + n)
                rhs = rprod(m - l, m + l + n)
                _eq_check(checks, "qint-cross-difference", (m, n, l), lhs, rhs)

    # [2n] = [2] * [n] in base q^2
    for n in range(-g_pair, g_pair + 1):
        lhs = qint(2 * n)
        rhs = qint(2) * qint_base(n, 2)
        _eq_check(checks, "qint-doubling", (n,), lhs, rhs)

    # the degree-six balance behind the odd-family product formula; only
    # the squares on the lhs repeat
    lprod = _products()
    for l in range(g_balance + 1):
        for k in range(g_balance + 1):
            for a in range(g_balance + 1):
                lhs = (
                    qint(2 * k + 2 * a - 2 * l + 2)
                    * qint(2 * a - 2 * l + 2)
                    * qint(2 * k - 2 * l + 2)
                    + lprod(2 * k + 2 * a - 2 * l + 3,
                            2 * k + 2 * a - 2 * l + 3)
                    * qint(2 * l)
                    - lprod(2 * k + 1, 2 * k + 1) * qint(2 * l)
                )
                rhs = (
                    qint(2 * a - 2 * l + 2)
                    * qint(2 * k + 2)
                    * qint(2 * k + 2 * a + 2)
                )
                _eq_check(checks, "qint-product-balance", (l, k, a), lhs, rhs)

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
        d = delta_gen(name)
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
            idp_closed(parity, n), idp_recursive(parity, n),
        )

    agreed = set()
    for m in range(bound + 1):
        for n in range(bound + 1 - m):
            # a generic pass implies the specialized one
            if _mult_agrees(parity, m, n, values):
                agreed.add((m, n))
                checks.append(CheckResult("mult-closed", (m, n), True))
                continue
            lhs = mult_direct(parity, m, n)
            rhs = mult_closed(parity, m, n)
            if mode == "specialized":
                lhs = _specialize_map(lhs)
                rhs = _specialize_map(rhs)
            _map_check(checks, "mult-closed", (m, n), lhs, rhs, "degree ")

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
                "degree ",
            )

    parameters = {"bound": bound, "family": parity, "varsigma": mode}
    return parameters, checks


# ---------------------------------------------------------------------------
# comultiplication suites
# ---------------------------------------------------------------------------

def _suite_comult(parity, bound, mode):
    checks = []
    for n in range(bound + 1):
        # a generic pass implies the specialized one; the Scalars decide
        # what the vectors do not prove, and write any witness
        if _comult_agrees(parity, n):
            checks.append(CheckResult("comult-theorem", (n,), True))
            continue
        lhs = comult_theorem(parity, n)
        rhs = comult_direct(parity, n)
        if mode == "specialized":
            lhs = lhs.specialize_varsigma()
            rhs = rhs.specialize_varsigma()
        _eq_check(checks, "comult-theorem", (n,), lhs, rhs)
    parameters = {"bound": bound, "family": parity, "varsigma": mode}
    return parameters, checks


def _suite_fhy(bound, mode):
    checks = []
    for parity in PARITIES:
        for n in range(bound + 1):
            for r in range(n + 1):
                lhs = s_component_reversed(parity, n, r)
                rhs = s_component(parity, n, r)
                if mode == "specialized":
                    lhs = lhs.specialize_varsigma()
                    rhs = rhs.specialize_varsigma()
                _eq_check(checks, "reversed-leg", (parity, n, r), lhs, rhs)
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
        # order -1 appears formally in the odd-order recurrence at its base
        # case, always multiplied by a vanishing quantum integer
        if n < 0:
            return UElement.zero()
        return s_component(EV, n, r)

    # even order 2l: [2l] S(2l, r) from order 2l - 1
    for l in range(1, bound // 2 + 1):
        n = 2 * l
        for r in range(n + 3):
            lhs = s(n, r).scale(Scalar(qint(n)))
            rhs = (kinv * s(n - 1, r)).scale(Scalar(qint(n - r))) \
                + ef * s(n - 1, r - 1)
            if r % 2 == 0:
                cid = "leg-recursion-even-r-even"
            else:
                cid = "leg-recursion-even-r-odd"
                rhs = rhs + (kinv * s(n - 1, r - 2)).scale(
                    Scalar(qint(n - r + 1)) * _QVS
                )
            _eq_check(checks, cid, (n, r), lhs, rhs)

    # odd order 2l + 1: [2l+1] S(2l+1, r) from orders 2l and 2l - 1
    for l in range((bound - 1) // 2 + 1):
        n = 2 * l + 1
        for r in range(n + 3):
            lhs = s(n, r).scale(Scalar(qint(n)))
            rhs = (kinv * s(n - 1, r)).scale(Scalar(qint(n - r))) \
                + ef * s(n - 1, r - 1) \
                - s(n - 2, r - 2).scale(Scalar(qint(n - 1)) * _QVS)
            if r % 2 == 0:
                cid = "leg-recursion-odd-r-even"
                rhs = rhs + (kinv * s(n - 1, r - 2)).scale(
                    Scalar(qint(n - r + 1)) * _QVS
                )
            else:
                cid = "leg-recursion-odd-r-odd"
            _eq_check(checks, cid, (n, r), lhs, rhs)

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
    """+1 / -1 when all coefficients share a sign, 0 for zero, None mixed."""
    if p.is_zero():
        return 0
    if p.is_nonneg():
        return 1
    if (-p).is_nonneg():
        return -1
    return None


_AXIS_MULTIPLIERS = (
    LaurentPoly.one() + LaurentPoly.monomial(2),
    LaurentPoly.one() + LaurentPoly.monomial(1),
)


def _axis_sign(p, tries=24):
    """Sign of a Laurent polynomial on the positive real axis.

    A fully reduced representative can alternate (cyclotomic factors such as
    q^4 - q^2 + 1) while the value still factors as a q-power times a ratio
    of nonnegative polynomials; multiplying by a nonnegative-coefficient
    polynomial exposes that presentation.  Returns None when no multiplier
    within the search budget settles the sign.
    """
    if p.is_zero():
        return 0
    for mult in _AXIS_MULTIPLIERS:
        test = p
        for _ in range(tries):
            s = _laurent_sign(test)
            if s is not None:
                return s
            test = test * mult
    return None


def _scalar_sign(s):
    """Sign of the value of a varsigma-free Scalar for real q > 0, decided
    constructively; None when undecided."""
    return _axis_sign(s.num * s.den)


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
                        sgn = _scalar_sign(w.coeff(ae, be, ce))
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
    ``varsigma_mode`` is ``generic`` or ``specialized``; specialized
    comparisons happen after substituting the inverse-q value.  The ``chi``
    and ``positivity`` suites are inherently specialized and ignore the mode.
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
    """
    if family not in PARITIES:
        raise ValueError(f"unknown family {family!r}")
    if max_total_degree < 0:
        raise NegativeInput("max_total_degree must be >= 0")
    _check_ceiling("max_total_degree", max_total_degree)
    rows = []
    for m in range(max_total_degree + 1):
        for n in range(max_total_degree + 1 - m):
            out = mult_closed(family, m, n)
            for d in sorted(out, reverse=True):
                l = (m + n - d) // 2
                s = out[d]
                sp = s.specialize_varsigma()
                try:
                    lp = sp.to_laurent()
                    integral = True
                    positive = lp.is_nonneg()
                except NotIntegral:
                    integral = False
                    positive = False
                rows.append((family, m, n, l, str(s), integral, positive))
    return rows


def emit_table(family, max_total_degree, fmt="csv"):
    """Serialize the structure-constant table as CSV or JSON text."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    rows = table_rows(family, max_total_degree)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for row in rows:
            writer.writerow(
                [row[0], row[1], row[2], row[3], row[4],
                 "true" if row[5] else "false",
                 "true" if row[6] else "false"]
            )
        return buf.getvalue()
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


# ---------------------------------------------------------------------------
# golden rendering
# ---------------------------------------------------------------------------

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
