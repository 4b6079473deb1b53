"""Exact arithmetic in the field Q(q,t).

Scalars are reduced fractions of bivariate integer polynomials.  A polynomial
is stored sparsely as a dict mapping (q_exponent, t_exponent) to a nonzero
arbitrary-precision integer; exponents are never negative.  Negative powers of
q or t (needed for q**-1, t**-1 substitutions) are expressed by clearing the
monomial into the denominator.

Canonical form of a fraction num/den:
  * gcd(num, den) = 1 in Z[q,t] (including integer content),
  * the coefficient of the lexicographically smallest exponent pair of den
    (q-major, then t) is positive.
Equality and hashing rely on this canonical form being unique.

Every operation returns its result in this form.  A sparse sum of many
coefficients goes through qt_sum, which reduces once per denominator group
of the output coefficient instead of once per added term; since the form is
unique, the result is the one term-by-term addition gives.

The gcd in Z[q,t] is the heuristic gcd of Char, Geddes and Gonnet (J. Symb.
Comp. 7, 1989), one recursive function from t through q down to integers:
evaluate a variable at an integer x, take the gcd of the images one level
down, and read it back as the polynomial whose balanced base-x digits it has.
Exact division of both inputs by the lifted candidate is its certificate: with
x above twice the smaller input's largest coefficient, a candidate that
divides both is the gcd.  A rejected candidate makes x grow, and the loop ends
because the images' spurious common factor stops growing with x (see _hgcd).
The result is deterministic: no randomness, no retry cap, no fallback.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ---------------------------------------------------------------------------
# raw polynomial dicts {(qexp, texp): int}
# ---------------------------------------------------------------------------

def _padd(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _pneg(a):
    return {e: -c for e, c in a.items()}


def _pmul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((ea, eb), c), = a.items()
        if c == 1 and ea == 0 and eb == 0:
            return dict(b)
        return {(ea + e0, eb + e1): c * d for (e0, e1), d in b.items()}
    out = {}
    for (a1, a2), c in a.items():
        for (b1, b2), d in b.items():
            e = (a1 + b1, a2 + b2)
            s = out.get(e, 0) + c * d
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _pscale(a, c):
    if c == 0:
        return {}
    if c == 1:
        return dict(a)
    return {e: c * v for e, v in a.items()}


def _pshift(a, dq, dt):
    if dq == 0 and dt == 0:
        return dict(a)
    return {(e0 + dq, e1 + dt): c for (e0, e1), c in a.items()}


def _pcontent_int(a):
    g = 0
    for c in a.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _pdiv_int(a, n):
    if n == 1:
        return dict(a)
    return {e: c // n for e, c in a.items()}


def _pdivexact(a, b):
    """Exact division in Z[q,t]; raises ArithmeticError if not exact."""
    if not a:
        return {}
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lb = max(b)
    lcb = b[lb]
    if len(b) == 1:
        out = {}
        for (e0, e1), c in a.items():
            if e0 < lb[0] or e1 < lb[1] or c % lcb:
                raise ArithmeticError("inexact polynomial division")
            out[(e0 - lb[0], e1 - lb[1])] = c // lcb
        return out
    quot = {}
    rem = dict(a)
    while rem:
        lr = max(rem)
        de = (lr[0] - lb[0], lr[1] - lb[1])
        c, r = divmod(rem[lr], lcb)
        if de[0] < 0 or de[1] < 0 or r:
            raise ArithmeticError("inexact polynomial division")
        quot[de] = c
        for (b0, b1), d in b.items():
            e = (b0 + de[0], b1 + de[1])
            s = rem.get(e, 0) - c * d
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return quot


def _p_eval(a, q0, t0):
    acc = Fraction(0)
    for (e0, e1), c in a.items():
        acc += c * q0 ** e0 * t0 ** e1
    return acc


# -- gcd ----------------------------------------------------------------------

def _peval(a, k, x):
    """a with variable k (0 = q, 1 = t) set to the integer x."""
    pw = [1]
    for _ in range(max(e[k] for e in a)):
        pw.append(pw[-1] * x)
    out = {}
    for e, c in a.items():
        f = (e[0], 0) if k else (0, e[1])
        out[f] = out.get(f, 0) + c * pw[e[k]]
    return {f: c for f, c in out.items() if c}


def _genpoly(h, x, k):
    """The polynomial whose coefficients of the powers of variable k are the
    balanced base-x digits of h's coefficients, so that its value at x is h."""
    out = {}
    for e, c in h.items():
        i = 0
        while c:
            d = c % x
            if 2 * d > x:
                d -= x
            if d:
                out[(e[0], i) if k else (i, e[1])] = d
            c = (c - d) // x
            i += 1
    return out


def _hgcd(a, b, k):
    """gcd of a and b, up to sign, where a and b involve variables 0..k only
    (k = -1: integers, which always take a shortcut).

    Each input loses its integer content and its monomial part first, at
    every level, so the gcd returned one level down is exact: a proper
    divisor of it would pass the division test below and leave a fraction
    unreduced.  Then variable k is set to x, starting above
    2*min(|a|_inf, |b|_inf) + 1, where a candidate that divides both inputs
    is their gcd (Char, Geddes and Gonnet).

    The loop ends.  Write a = g*a1, b = g*b1 with a1, b1 coprime; the
    images' gcd is g(x)*D with D = gcd(a1(x), b1(x)).  For k = 0, D divides
    the integer resultant of a1 and b1.  For k = 1, D is an integer once x
    is past the roots of their resultant with respect to q, and it divides
    the content of their resultant with respect to t (u*a1 + v*b1 equals
    it), which does not depend on x.  So once x > 2*|D|*|g|_inf the digits
    of g(x)*D are the coefficients of D*g, whose primitive part is g."""
    if not a or not b:
        return dict(a or b)
    amq = min(e[0] for e in a)
    amt = min(e[1] for e in a)
    bmq = min(e[0] for e in b)
    bmt = min(e[1] for e in b)
    ca = _pcontent_int(a)
    cb = _pcontent_int(b)
    a0 = _pdiv_int(_pshift(a, -amq, -amt), ca)
    b0 = _pdiv_int(_pshift(b, -bmq, -bmt), cb)
    if a0 == b0:
        g = a0
    elif len(a0) == 1 or len(b0) == 1:
        g = _ONE_TERMS
    else:
        x = 2 * min(max(map(abs, a0.values())),
                    max(map(abs, b0.values()))) + 29
        while True:
            h = _hgcd(_peval(a0, k, x), _peval(b0, k, x), k - 1)
            g = _genpoly(h, x, k)
            g = _pdiv_int(g, _pcontent_int(g))
            try:
                _pdivexact(a0, g)
                _pdivexact(b0, g)
                break
            except ArithmeticError:
                x = x * 73794 // 27011
    return _pshift(_pscale(g, math.gcd(ca, cb)), min(amq, bmq), min(amt, bmt))


def _pgcd(a, b):
    """gcd in Z[q,t], normalized so its smallest (lex, q-major) term is positive."""
    g = _hgcd(a, b, 1)
    if g and g[min(g)] < 0:
        g = _pneg(g)
    return g


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def _pterm_str(c, e0, e1):
    mono = []
    if e0 == 1:
        mono.append("q")
    elif e0 > 1:
        mono.append("q^%d" % e0)
    if e1 == 1:
        mono.append("t")
    elif e1 > 1:
        mono.append("t^%d" % e1)
    m = "*".join(mono)
    if not m:
        return str(c)
    if c == 1:
        return m
    if c == -1:
        return "-" + m
    return "%d*%s" % (c, m)


def _p_str(a):
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        s = _pterm_str(a[e], e[0], e[1])
        if not parts:
            parts.append(s)
        elif s.startswith("-"):
            parts.append(" - " + s[1:])
        else:
            parts.append(" + " + s)
    return "".join(parts)


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

_ONE_TERMS = {(0, 0): 1}


class QtRational:
    """Canonical reduced element of Q(q,t)."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        n = dict(num)
        d = dict(_ONE_TERMS) if den is None else dict(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        if not n:
            d = dict(_ONE_TERMS)
        elif d != _ONE_TERMS:
            g = _pgcd(n, d)
            if g != _ONE_TERMS:
                n = _pdivexact(n, g)
                d = _pdivexact(d, g)
        if d[min(d)] < 0:
            n = _pneg(n)
            d = _pneg(d)
        self.num = n
        self.den = d
        self._hash = None

    # -- constructors --------------------------------------------------

    @classmethod
    def _raw(cls, num, den):
        x = object.__new__(cls)
        x.num = num
        x.den = den
        x._hash = None
        return x

    @classmethod
    def from_int(cls, n):
        if n == 0:
            return _ZERO
        return cls._raw({(0, 0): n}, dict(_ONE_TERMS))

    @classmethod
    def monomial(cls, coeff=1, qexp=0, texp=0):
        """coeff * q**qexp * t**texp; negative exponents go to the denominator."""
        if coeff == 0:
            return _ZERO
        nq, nt = max(qexp, 0), max(texp, 0)
        dq, dt = max(-qexp, 0), max(-texp, 0)
        return cls._raw({(nq, nt): coeff}, {(dq, dt): 1})

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == _ONE_TERMS and self.den == _ONE_TERMS

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------

    def _add_sub(self, other, sub):
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if sub:
            n2 = _pneg(n2)
        if not n1:
            return QtRational._raw(dict(n2), d2)
        if not n2:
            return self
        if d1 == d2:
            t = _padd(n1, n2)
            if not t:
                return _ZERO
            if d1 == _ONE_TERMS:
                return QtRational._raw(t, dict(_ONE_TERMS))
            h = _pgcd(t, d1)
            if h == _ONE_TERMS:
                return QtRational._raw(t, dict(d1))
            return QtRational._raw(_pdivexact(t, h), _pdivexact(d1, h))
        # Henrici: reduce by g = gcd(d1, d2) so growth stays linear
        g = _pgcd(d1, d2)
        if g == _ONE_TERMS:
            t = _padd(_pmul(n1, d2), _pmul(n2, d1))
            if not t:
                return _ZERO
            return QtRational._raw(t, _pmul(d1, d2))
        d1p = _pdivexact(d1, g)
        d2p = _pdivexact(d2, g)
        t = _padd(_pmul(n1, d2p), _pmul(n2, d1p))
        if not t:
            return _ZERO
        h = _pgcd(t, g)
        if h == _ONE_TERMS:
            return QtRational._raw(t, _pmul(d1, d2p))
        return QtRational._raw(_pdivexact(t, h),
                               _pmul(_pdivexact(d1, h), d2p))

    def __add__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        return self._add_sub(other, False)

    def __neg__(self):
        return QtRational._raw(_pneg(self.num), self.den)

    def __sub__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        return self._add_sub(other, True)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0 or not self.num:
                return _ZERO
            return QtRational(_pscale(self.num, other), self.den)
        if not isinstance(other, QtRational):
            return NotImplemented
        if not self.num or not other.num:
            return _ZERO
        if self.den == _ONE_TERMS and other.den == _ONE_TERMS:
            return QtRational._raw(_pmul(self.num, other.num), dict(_ONE_TERMS))
        # cross-reduce; the result is then automatically in lowest terms
        if other.den == _ONE_TERMS:
            n1, d2 = self.num, other.den
        else:
            g1 = _pgcd(self.num, other.den)
            n1 = self.num if g1 == _ONE_TERMS else _pdivexact(self.num, g1)
            d2 = other.den if g1 == _ONE_TERMS else _pdivexact(other.den, g1)
        if self.den == _ONE_TERMS:
            n2, d1 = other.num, self.den
        else:
            g2 = _pgcd(other.num, self.den)
            n2 = other.num if g2 == _ONE_TERMS else _pdivexact(other.num, g2)
            d1 = self.den if g2 == _ONE_TERMS else _pdivexact(self.den, g2)
        num = _pmul(n1, n2)
        den = _pmul(d1, d2)
        if den[min(den)] < 0:
            num, den = _pneg(num), _pneg(den)
        return QtRational._raw(num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, QtRational):
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q,t)")
        if not self.num:
            return _ZERO
        return self * other.inverse()

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(q,t)")
        num, den = self.den, self.num
        if den[min(den)] < 0:
            num, den = _pneg(num), _pneg(den)
        return QtRational._raw(num, den)

    def normalized(self):
        """Re-canonicalize (idempotent on canonical values)."""
        return QtRational(self.num, self.den)

    def invert_params(self):
        """Substitute q -> 1/q and t -> 1/t."""
        if not self.num:
            return _ZERO
        nq = max(e[0] for e in self.num)
        nt = max(e[1] for e in self.num)
        dq = max(e[0] for e in self.den)
        dt = max(e[1] for e in self.den)
        num = {(nq - e0, nt - e1): c for (e0, e1), c in self.num.items()}
        den = {(dq - e0, dt - e1): c for (e0, e1), c in self.den.items()}
        return QtRational(_pshift(num, dq, dt), _pshift(den, nq, nt))

    # -- comparisons, hashing, printing -----------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.num
            return self.den == _ONE_TERMS and self.num == {(0, 0): other}
        if not isinstance(other, QtRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    def __str__(self):
        if self.den == _ONE_TERMS:
            return _p_str(self.num)
        return "(%s)/(%s)" % (_p_str(self.num), _p_str(self.den))

    def __repr__(self):
        return "QtRational(%s)" % self

    def eval(self, q0, t0):
        """Exact value at a rational point; raises on a pole."""
        q0, t0 = Fraction(q0), Fraction(t0)
        d = _p_eval(self.den, q0, t0)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at (%s, %s)" % (q0, t0))
        return _p_eval(self.num, q0, t0) / d


_ZERO = QtRational._raw({}, dict(_ONE_TERMS))
_ONE = QtRational._raw({(0, 0): 1}, dict(_ONE_TERMS))

ZERO = _ZERO
ONE = _ONE
Q = QtRational._raw({(1, 0): 1}, dict(_ONE_TERMS))
T = QtRational._raw({(0, 1): 1}, dict(_ONE_TERMS))


def _sum_over(values, den):
    """Sum of values that all have denominator den: their numerators are
    added with no gcd, and the sum is reduced once."""
    num = dict(values[0].num)
    for v in values[1:]:
        for e, c in v.num.items():
            s = num.get(e, 0) + c
            if s:
                num[e] = s
            else:
                del num[e]
    if not num:
        return _ZERO
    if den == _ONE_TERMS:
        return QtRational._raw(num, den)
    return QtRational(num, den)


def qt_sum(values):
    """Sum of a nonempty list of QtRationals, reduced once per denominator.

    The values are grouped by denominator, each group's numerators are added
    as integer polynomials with no gcd, each group sum is reduced once, and
    the groups are combined by the Henrici addition of ``+``.  The result is
    the canonical value the left fold of ``+`` gives, at fewer gcds when
    several values share a denominator."""
    if len(values) < 3:
        return values[0] + values[1] if len(values) == 2 else values[0]
    # values over one denominator (as in every sum of polynomial
    # coefficients) form one group, found without hashing it
    d0 = values[0].den
    for v in values:
        if v.den != d0:
            break
    else:
        return _sum_over(values, d0)
    groups = {}
    for v in values:
        d = v.den
        # a monomial denominator keys by its one (exponent, coefficient) item
        key = tuple(d.items()) if len(d) == 1 else frozenset(d.items())
        g = groups.get(key)
        if g is None:
            groups[key] = [v]
        else:
            g.append(v)
    total = None
    for g in groups.values():
        s = g[0] if len(g) == 1 else _sum_over(g, g[0].den)
        total = s if total is None else total + s
    return total


def t_factorial(k, inverse=False):
    """[k]_t! = (1-t)(1-t^2)...(1-t^k) / (1-t)^k, or the same in t**-1."""
    v = T.inverse() if inverse else T
    one = _ONE
    num = _ONE
    den = _ONE
    vp = one
    for j in range(1, k + 1):
        vp = vp * v
        num = num * (one - vp)
        den = den * (one - v)
    return num / den if k else _ONE


def parse_qt(s):
    """Parse the canonical text form back into a QtRational (for tests/CLI)."""
    s = s.strip()
    if s.startswith("(") and ")/(" in s and s.endswith(")"):
        i = s.index(")/(")
        return QtRational(_parse_poly(s[1:i]), _parse_poly(s[i + 3:-1]))
    return QtRational(_parse_poly(s))


def _parse_poly(s):
    s = s.replace(" - ", " +-").replace("- ", "-")
    out = {}
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        coeff = 1
        e0 = e1 = 0
        for f in chunk.split("*"):
            f = f.strip()
            if not f:
                continue
            if f[0] == "q":
                e0 = int(f[2:]) if "^" in f else 1
            elif f[0] == "t":
                e1 = int(f[2:]) if "^" in f else 1
            else:
                coeff = int(f)
        e = (e0, e1)
        out[e] = out.get(e, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}
