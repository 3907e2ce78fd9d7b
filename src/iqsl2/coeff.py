"""Exact coefficient arithmetic over the field Q(q, varsigma).

Two layers:

* LaurentPoly: an element of Z[q^{+-1}, varsigma^{+-1}], stored as a sparse
  dict mapping (q-exponent, varsigma-exponent) to nonzero int. The dict
  kernels live in _kernel_py; its kmul multiplies large operands by
  Kronecker substitution.
* Scalar: a fraction num/den of LaurentPolys with den != 0. Equality is by
  cross-multiplication, so it never depends on how far a representative was
  reduced. Construction still normalizes: the denominator is shifted to touch
  exponent zero in both variables, joint integer content is removed, the
  primitive gcd in Z[q] is divided out when the denominator is
  varsigma-free, and the denominator's leading sign is fixed positive.

Exact division works in the slot layout at stride 1 (_to_slots,
_from_slots) of _kernel_py. The reduction's gcd turns dict loops into a
few big-integer operations with the pack/unpack pair (_pack: evaluate at
q = 2^k; _unpack: balanced base-2^k digits) of _kernel_py, at any width k.
kmul shares only _to_slots, _pack and _unpack with them, for products whose
digits need more than 64 bits; below that it folds the q-stride and packs
whole machine words (see _kernel_py).

* Exact division (_div_exact_raw) shifts both operands to ordinary
  polynomials and maps the term c*q^i*v^j to slot j*w + i, with
  w = deg_q(a) + 1. That is Kronecker substitution q -> X, v -> X^w
  (Harvey, J. Symbolic Comput. 2009), a ring map that is injective on
  polynomials of q-degree below w. The slot dict A of a is divided by the
  slot dict B of b by schoolbook division from the top slot down, which
  finds the quotient in Q[X] one coefficient at a time. If b divides a with
  quotient c, then deg_q(c) = deg_q(a) - deg_q(b), so b*c has q-degree below
  w and the slot dict C of c is that quotient: every divmod against the
  leading coefficient of B leaves no remainder, every quotient slot s has
  q-part s mod w at most w - 1 - deg_q(b), and the remainder below deg B is
  zero. Each of the three failing therefore proves that b does not divide a,
  and the division returns None. Otherwise C is the slot dict of a
  polynomial c with deg_q(b) + deg_q(c) < w, so b*c maps to B*C = A, and
  by injectivity b*c == a. The division is not packed into big integers:
  CPython's big-integer divmod is itself quadratic, and the schoolbook loop
  ran faster on every operand measured.
* The gcd (_uni_gcd) is the heuristic GCDHEU (Char, Geddes & Gonnet,
  J. Symbolic Comput. 1989), run once on a list: the denominator and every
  v-slice of the numerator, each divided by its lowest power of q. It
  returns the primitive gcd g and the cofactors p_i / g, from which
  _reduce builds the reduced fraction without a division. Every p_i is
  evaluated at xi = 2^k > 2*max_i ||p_i||_inf + 29, so all input
  coefficients lie inside the digit range (-xi/2, xi/2), and one integer
  gcd h of the values is taken. If h < xi/2 its digits are a constant: the
  gcd is 1 and the inputs are their own cofactors. Otherwise the balanced
  digits gamma of h give the candidate g = pp(gamma), leading coefficient
  positive, and h / cont(gamma) = g(xi) divides every p_i(xi). The
  cofactor c_i is the balanced digits of p_i(xi) / g(xi), so g*c_i and p_i
  agree at xi. When ||g||_2^2 * ||c_i||_2^2 < 2^(2k-2), Cauchy-Schwarz puts
  every coefficient of g*c_i inside the digit range too; both are then the
  same balanced expansion and g*c_i == p_i. Otherwise kmul checks
  g*c_i == p_i exactly. Once g divides every input it is their gcd: the
  primitive gcd is g*f for some f, and since it divides every p_i its
  value at xi divides h, so f(xi) divides cont(gamma), which is at most
  xi/2 in absolute value. A nonconstant f divides each p_i, whose roots
  lie below 1 + ||p_i||_inf < xi/2 in absolute value, so |f(xi)| > xi/2:
  f is 1. The argument uses one input's norm only, so it holds for a list
  as for a pair. After four points (k doubles each time) the primitive
  PRS runs instead and the exact division (_slot_quotient, on one row)
  gives the cofactors. Either way g is the unique primitive gcd with a
  positive leading coefficient.

For a varsigma-free denominator the reduced form is unique: shifted to
touch q^0 and v^0, joint content removed, no nonconstant common factor of
the denominator and the numerator's v-slices left, leading sign fixed. So
how the gcd and the cofactors are found never changes the output. It also
lets a product with a monomial c*q^i*v^j/e skip the gcd: the other factor
is reduced (every Scalar comes out of _reduce, and negation keeps that
form), and shifting its numerator's v-slices by q^i*v^j and scaling them
and its denominator by nonzero integers leaves their primitive gcd at 1.
Nor does a one-term numerator c*q^i*v^j need a gcd: its v-slice divided
by its q-power is the constant c, and the shifted denominator has a
nonzero constant term, so their primitive gcd is 1.

The canonical text form (shared by parse/str round-trips, tables and golden
files) writes a polynomial as terms ascending by (q-exponent, v-exponent),
with `v` denoting varsigma: coefficient omitted when +-1, exponent 1 written
bare, exponent 0 factors dropped, terms joined by ` + ` / ` - `. Examples:
`q + q^-1`, `q^2*v - 3*v^2`, `0`. A Scalar prints `(<num>)/(<den>)`, or
`<num>` alone when the denominator is 1.
"""

import math

from . import _kernel as _k
from ._kernel_py import _from_slots, _pack, _to_slots, _unpack
from .errors import (
    DenominatorVanishes,
    DivisionByZero,
    NotIntegral,
    RequiresSpecialized,
)

_ONE_TERMS = {(0, 0): 1}


def format_terms(items):
    """The canonical text (module docstring) of the terms ((i, j), c),
    c != 0, given ascending in (i, j); "0" when there are none. Each term
    is written as one string, signed; the join turns "+ -" into "-"."""
    parts = []
    add = parts.append
    for (i, j), c in items:
        if i:
            m = "q" if i == 1 else f"q^{i}"
            if j:
                m += "*v" if j == 1 else f"*v^{j}"
        elif j:
            m = "v" if j == 1 else f"v^{j}"
        else:
            add(str(c))
            continue
        add(m if c == 1 else "-" + m if c == -1 else f"{c}*{m}")
    return " + ".join(parts).replace(" + -", " - ") if parts else "0"


def _min_exps(t):
    mi = min(i for i, _ in t)
    mj = min(j for _, j in t)
    return mi, mj


def _slot_quotient(a, b, w):
    """Exact quotient of slot dicts a/b, or None when b does not divide a.

    a and b are polynomials (no negative exponents) of q-degree below w,
    and b is nonzero. Schoolbook division from the top slot down; each None
    proves non-division (see the module docstring).
    """
    db = max(b)
    lb = b[db]
    dq = w - 1 - max(s % w for s in b)
    r = dict(a)
    out = {}
    for s in range(max(a) - db, -1, -1):
        x = r.pop(s + db, 0)
        if not x:
            continue
        c, m = divmod(x, lb)
        if m or s % w > dq:
            return None
        out[s] = c
        for e, y in b.items():
            if e != db:
                k = e + s
                v = r.get(k, 0) - c * y
                if v:
                    r[k] = v
                else:
                    del r[k]
    # nonzero slots left are a remainder below deg b
    return None if r else dict(reversed(out.items()))


def _div_exact_raw(a, b):
    """Exact quotient of term dicts a/b, or None when b does not divide a.

    b must be nonzero. Both operands are shifted to ordinary polynomials
    and divided in the slot layout (_slot_quotient).
    """
    if not a:
        return {}
    ai, aj = _min_exps(a)
    bi, bj = _min_exps(b)
    w = max(i for i, _ in a) - ai + 1
    if max(i for i, _ in b) - bi >= w:
        return None
    quot = _slot_quotient(_to_slots(a, ai, aj, w), _to_slots(b, bi, bj, w), w)
    if quot is None:
        return None
    return _from_slots(quot, w, ai - bi, aj - bj)


def _uni_primitive(p):
    """Strip integer content from {exp: int}; leading coefficient ends positive."""
    if not p:
        return p
    g = 0
    for c in p.values():
        g = math.gcd(g, c)
    if p[max(p)] < 0:
        g = -g
    if g != 1:
        p = {e: c // g for e, c in p.items()}
    return p


def _uni_prem(a, b):
    """Pseudo-remainder of univariate {exp: int} dicts, b nonzero."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r.pop(dr)
        nxt = {e: c * lb for e, c in r.items()}
        for e, c in b.items():
            if e == db:
                continue
            k = e + dr - db
            v = nxt.get(k, 0) - lr * c
            if v:
                nxt[k] = v
            elif k in nxt:
                del nxt[k]
        r = nxt
    return r


# evaluation points GCDHEU tries, doubling k each time, before the PRS
_HEU_POINTS = 4


def _uni_gcd(polys):
    """Primitive gcd g in Z[q] of nonzero {exp: int} dicts with minimum
    exponent 0, positive leading coefficient, and the cofactors p / g.

    Returns (g, [p / g for p in polys]); when g is 1 the cofactors are the
    inputs themselves. GCDHEU (see the module docstring), with the
    primitive PRS as the fallback.
    """
    k = (2 * max(max(map(abs, p.values())) for p in polys) + 29).bit_length()
    for _ in range(_HEU_POINTS):
        vals = [_pack(p, k) for p in polys]
        h = math.gcd(*vals)
        if not h >> (k - 1):
            return {0: 1}, polys
        gam = _unpack(h, h.bit_length() // k + 2, k)
        cont = math.gcd(*gam.values())
        if gam[max(gam)] < 0:
            cont = -cont
        g = {e: c // cont for e, c in gam.items()}
        h //= cont
        dg = max(g)
        # g * c has coefficients below ||g||_2 * ||c||_2 (Cauchy-Schwarz)
        g2 = sum(c * c for c in g.values())
        cofs = []
        for p, x in zip(polys, vals):
            # None when c would need more digits than deg p - deg g + 1
            c = _unpack(x // h, max(p) - dg + 1, k)
            if c is None or (
                g2 * sum(v * v for v in c.values()) >> (2 * k - 2)
                and _k.kmul(_uni_terms(g), _uni_terms(c)) != _uni_terms(p)
            ):
                break
            cofs.append(c)
        else:
            return g, cofs
        k *= 2
    g = _uni_primitive(polys[0])
    for p in polys[1:]:
        if not max(g):
            break
        a, b = g, _uni_primitive(p)
        if max(a) < max(b):
            a, b = b, a
        while b:
            a, b = b, _uni_primitive(_uni_prem(a, b))
        g = a
    if not max(g):
        return {0: 1}, polys
    return g, [_slot_quotient(p, g, max(p) + 1) for p in polys]


def _uni_terms(p):
    """The v-free term dict {(e, 0): c} of the univariate dict p."""
    return {(e, 0): c for e, c in p.items()}


def _parse_term(t):
    c = 1
    i = 0
    j = 0
    for f in t.split("*"):
        f = f.strip()
        if f == "q":
            i += 1
        elif f == "v":
            j += 1
        elif f.startswith("q^"):
            i += int(f[2:])
        elif f.startswith("v^"):
            j += int(f[2:])
        elif f:
            c *= int(f)
        else:
            raise ValueError(f"empty factor in term {t!r}")
    return (i, j), c


def _check_term(i, j, c):
    """TypeError unless the term c*q^i*v^j has int exponents and coefficient."""
    if not (isinstance(i, int) and isinstance(j, int) and isinstance(c, int)):
        raise TypeError(
            f"LaurentPoly term {(i, j)!r}: {c!r} needs int "
            "exponents and an int coefficient"
        )


class LaurentPoly:
    """Element of Z[q^{+-1}, varsigma^{+-1}] with exact int coefficients."""

    __slots__ = ("_t", "_h")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (i, j), c in terms.items():
                _check_term(i, j, c)
                if c:
                    t[(int(i), int(j))] = int(c)
        self._t = t
        self._h = None

    @classmethod
    def _raw(cls, t):
        # internal: t already pruned, ownership transferred
        self = cls.__new__(cls)
        self._t = t
        self._h = None
        return self

    @classmethod
    def zero(cls):
        return _LP_ZERO

    @classmethod
    def one(cls):
        return _LP_ONE

    @classmethod
    def from_int(cls, n):
        return cls.monomial(0, 0, n)

    @classmethod
    def monomial(cls, i=0, j=0, c=1):
        _check_term(i, j, c)
        return cls._raw({(int(i), int(j)): int(c)} if c else {})

    @classmethod
    def q(cls, i=1):
        return cls.monomial(i, 0)

    @classmethod
    def vs(cls, j=1):
        return cls.monomial(0, j)

    def terms(self):
        """Iterate (q_exp, vs_exp, coeff) ascending in (q_exp, vs_exp)."""
        for k in sorted(self._t):
            yield k[0], k[1], self._t[k]

    def coeff(self, i, j=0):
        return self._t.get((i, j), 0)

    def is_zero(self):
        return not self._t

    def is_one(self):
        return self._t == _ONE_TERMS

    def is_varsigma_free(self):
        return all(j == 0 for _, j in self._t)

    def is_nonneg(self):
        """True iff every integer coefficient is >= 0."""
        return all(c >= 0 for c in self._t.values())

    def __bool__(self):
        return bool(self._t)

    def __len__(self):
        return len(self._t)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._t == ({(0, 0): other} if other else {})
        if isinstance(other, LaurentPoly):
            return self._t == other._t
        return NotImplemented

    def __hash__(self):
        if self._h is None:
            self._h = hash(frozenset(self._t.items()))
        return self._h

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(_k.kadd(self._t, other._t))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(_k.ksub(self._t, other._t))

    def __rsub__(self, other):
        if isinstance(other, int):
            return LaurentPoly.from_int(other) - self
        return NotImplemented

    def __neg__(self):
        return LaurentPoly._raw(_k.kneg(self._t))

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly._raw(_k.kscale(self._t, other))
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly._raw(_k.kmul(self._t, other._t))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("LaurentPoly powers take a nonnegative int")
        out = _LP_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def shift(self, di, dj=0):
        """Multiply by the monomial q^di * v^dj."""
        if not self._t:
            return self
        return LaurentPoly._raw(_k.kshift(self._t, di, dj, 1))

    def subst_q_inv(self):
        """Substitute q -> q^-1 (varsigma untouched)."""
        return LaurentPoly._raw({(-i, j): c for (i, j), c in self._t.items()})

    def subst_v_qinv(self):
        """Substitute varsigma -> q^-1."""
        t = self._t
        out = {(i - j, 0): c for (i, j), c in t.items()}
        if len(out) == len(t):
            return LaurentPoly._raw(out)
        # terms whose exponents i - j collide: merge them
        out = {}
        for (i, j), c in t.items():
            k = (i - j, 0)
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return LaurentPoly._raw(out)

    def exact_div(self, other):
        """Exact quotient self/other, or None when other does not divide self."""
        if isinstance(other, int):
            other = LaurentPoly.from_int(other)
        if other.is_zero():
            raise DivisionByZero("division of LaurentPoly by zero")
        q = _div_exact_raw(self._t, other._t)
        return None if q is None else LaurentPoly._raw(q)

    def __str__(self):
        return format_terms(sorted(self._t.items()))

    def __repr__(self):
        return f"LaurentPoly({self})"

    @classmethod
    def parse(cls, s):
        """Inverse of str for the canonical grammar (tolerant of extra spaces)."""
        s = s.strip()
        if s == "0":
            return cls.zero()
        sign = 1
        if s.startswith("-"):
            sign = -1
            s = s[1:].lstrip()
        out = {}
        term = []
        ops = []
        # split on top-level " + " / " - "
        rest = s
        while True:
            pi = rest.find(" + ")
            mi = rest.find(" - ")
            if pi == -1 and mi == -1:
                term.append(rest)
                break
            if mi == -1 or (pi != -1 and pi < mi):
                term.append(rest[:pi])
                ops.append(1)
                rest = rest[pi + 3:]
            else:
                term.append(rest[:mi])
                ops.append(-1)
                rest = rest[mi + 3:]
        signs = [sign] + ops
        for sg, t in zip(signs, term):
            k, c = _parse_term(t)
            v = out.get(k, 0) + sg * c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return cls._raw(out)


_LP_ZERO = LaurentPoly._raw({})
_LP_ONE = LaurentPoly._raw({(0, 0): 1})


def _normalize(n, d):
    """Shift, joint content and sign of a raw fraction of term dicts, with
    no gcd; returns fresh (num, den). This is the whole reduction of a
    fraction known to be in lowest terms, such as a reduced fraction times
    a monomial (see the module docstring)."""
    if not n:
        return {}, dict(_ONE_TERMS)
    mi, mj = _min_exps(d)
    if mi or mj:
        n = _k.kshift(n, -mi, -mj, 1)
        d = _k.kshift(d, -mi, -mj, 1)
    else:
        n = dict(n)
        d = dict(d)
    cont = math.gcd(*n.values(), *d.values())
    if cont > 1:
        n = {k: c // cont for k, c in n.items()}
        d = {k: c // cont for k, c in d.items()}
    if d[max(d)] < 0:
        n = _k.kneg(n)
        d = _k.kneg(d)
    return n, d


def _reduce(n, d):
    """Normalize a raw fraction of term dicts and, when the denominator is
    varsigma-free and the numerator has more than one term, cancel its
    primitive gcd with the numerator's v-slices; returns fresh (num, den)."""
    n, d = _normalize(n, d)
    if len(n) > 1 and len(d) > 1 and all(j == 0 for _, j in d):
        slices = {}
        for (i, j), c in n.items():
            slices.setdefault(j, {})[i] = c
        # the gcd's inputs: d, then each slice divided by its lowest q-power
        polys = [{i: c for (i, _), c in d.items()}]
        lows = []
        for j, sl in slices.items():
            m = min(sl)
            lows.append((j, m))
            polys.append({i - m: c for i, c in sl.items()} if m else sl)
        g, cofs = _uni_gcd(polys)
        if max(g):
            # d has a nonzero constant term and a positive leading
            # coefficient, and so has d / g: no shift, no sign fix
            d = _uni_terms(cofs[0])
            n = {(i + m, j): c
                 for (j, m), cof in zip(lows, cofs[1:]) for i, c in cof.items()}
    return n, d


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar.from_int(x)
    if isinstance(x, LaurentPoly):
        return Scalar._make(dict(x._t), dict(_ONE_TERMS))
    return None


class Scalar:
    """Fraction of LaurentPolys; equality by cross-multiplication."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=1):
        if isinstance(num, int):
            num = LaurentPoly.from_int(num)
        if isinstance(den, int):
            den = LaurentPoly.from_int(den)
        if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
            raise TypeError("Scalar takes LaurentPoly or int num/den")
        if den.is_zero():
            raise DivisionByZero("Scalar with zero denominator")
        n, d = _reduce(num._t, den._t)
        self._n = LaurentPoly._raw(n)
        self._d = LaurentPoly._raw(d)

    @classmethod
    def _make(cls, n, d, cancel=True):
        # internal: raw dicts, owned by the result from here on and reduced
        # here exactly once; cancel=False, no gcd, only for a fraction known
        # to be in lowest terms (such as a reduced fraction times a
        # monomial). n/1 is already normal: no shift, content or sign fix
        self = cls.__new__(cls)
        if d != _ONE_TERMS:
            n, d = _reduce(n, d) if cancel else _normalize(n, d)
        self._n = LaurentPoly._raw(n)
        self._d = LaurentPoly._raw(d)
        return self

    @classmethod
    def zero(cls):
        return _SC_ZERO

    @classmethod
    def one(cls):
        return _SC_ONE

    @classmethod
    def from_int(cls, n):
        return cls._make({(0, 0): int(n)} if n else {}, dict(_ONE_TERMS))

    @classmethod
    def q_power(cls, i):
        s = _QPOW.get(i)
        if s is None:
            s = cls._make({(i, 0): 1}, dict(_ONE_TERMS))
            _QPOW[i] = s
        return s

    @classmethod
    def vs_power(cls, j, i=0):
        return cls._make({(i, j): 1}, dict(_ONE_TERMS))

    @property
    def num(self):
        return self._n

    @property
    def den(self):
        return self._d

    def is_zero(self):
        return self._n.is_zero()

    def is_one(self):
        return self._n._t == self._d._t

    def is_varsigma_free(self):
        return self._n.is_varsigma_free() and self._d.is_varsigma_free()

    def __bool__(self):
        return not self._n.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self._d._t == other._d._t:
            return self._n._t == other._n._t
        return _k.kmul(self._n._t, other._d._t) == _k.kmul(other._n._t, self._d._t)

    __hash__ = None

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n1, d1 = self._n._t, self._d._t
        n2, d2 = other._n._t, other._d._t
        if d1 == d2:
            return Scalar._make(_k.kadd(n1, n2), dict(d1))
        return Scalar._make(
            _k.kadd(_k.kmul(n1, d2), _k.kmul(n2, d1)), _k.kmul(d1, d2)
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n1, d1 = self._n._t, self._d._t
        n2, d2 = other._n._t, other._d._t
        if d1 == d2:
            return Scalar._make(_k.ksub(n1, n2), dict(d1))
        return Scalar._make(
            _k.ksub(_k.kmul(n1, d2), _k.kmul(n2, d1)), _k.kmul(d1, d2)
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        s = Scalar.__new__(Scalar)
        s._n = -self._n
        s._d = self._d
        return s

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n1, d1 = self._n._t, self._d._t
        n2, d2 = other._n._t, other._d._t
        # no gcd for a product with a monomial (see the module docstring)
        cancel = (len(n1) != 1 or len(d1) != 1) and (len(n2) != 1 or len(d2) != 1)
        return Scalar._make(_k.kmul(n1, n2), _k.kmul(d1, d2), cancel)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("Scalar division by zero")
        return Scalar._make(
            _k.kmul(self._n._t, other._d._t), _k.kmul(self._d._t, other._n._t)
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero Scalar")
        return Scalar._make(dict(self._d._t), dict(self._n._t))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("Scalar powers take an int")
        if n < 0:
            return self.inverse() ** (-n)
        out = _SC_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def bar(self):
        """Substitute q -> q^-1; defined only on varsigma-free scalars."""
        if not self.is_varsigma_free():
            raise RequiresSpecialized(
                "bar is defined only on varsigma-free scalars; specialize first"
            )
        return Scalar._make(
            self._n.subst_q_inv()._t, self._d.subst_q_inv()._t
        )

    def specialize_varsigma(self):
        """Substitute varsigma -> q^-1 in num and den."""
        d = self._d.subst_v_qinv()
        if d.is_zero():
            raise DenominatorVanishes(
                "denominator vanishes under varsigma -> q^-1"
            )
        return Scalar._make(self._n.subst_v_qinv()._t, d._t)

    def to_laurent(self):
        """Flatten to a LaurentPoly; raises NotIntegral when den does not divide num."""
        if self._d.is_one():
            return self._n
        q = self._n.exact_div(self._d)
        if q is None:
            raise NotIntegral(f"{self} is not a Laurent polynomial")
        return q

    def __str__(self):
        if self._d.is_one():
            return str(self._n)
        return f"({self._n})/({self._d})"

    def __repr__(self):
        return f"Scalar({self})"

    @classmethod
    def parse(cls, s):
        s = s.strip()
        if s.startswith("(") and s.endswith(")"):
            cut = s.find(")/(")
            if cut != -1:
                return cls(
                    LaurentPoly.parse(s[1:cut]), LaurentPoly.parse(s[cut + 3:-1])
                )
        return cls(LaurentPoly.parse(s))


_QPOW = {}
_SC_ZERO = Scalar.from_int(0)
_SC_ONE = Scalar.from_int(1)
