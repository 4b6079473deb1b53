"""The ring Z[q,t]: integer polynomials in q and t, and their factors
Phi_n(q^a t^b).

A polynomial is a dict mapping (q_exponent, t_exponent) to a nonzero
arbitrary-precision integer; exponents are never negative.  Functions here
return new dicts and never mutate their arguments.

For gcd(a, b) = 1 the polynomial Phi_n(q^a t^b) is irreducible, with Phi_1(u)
taken as 1 - u so that every factor has constant term 1.  The terms of a
polynomial whose exponents differ by multiples of (a, b) form a class, a
monomial times a polynomial in u = q^a t^b, and Phi_n(q^a t^b) divides the
polynomial exactly when Phi_n(u) divides every class (_fdiv).  Most trial
divisions fail, and _fdiv rejects those with one evaluation mod the prime
_P at a point where q^a t^b is a root of Phi_n: a nonzero value proves that
Phi_n(q^a t^b) does not divide, and only a zero goes on to the division by
classes, which decides.  A factored denominator
c q^i t^j prod Phi_n(q^a t^b)^k is kept as its key (c, i, j, fac): its
lowest term c q^i t^j and fac, a sorted tuple of ((n, a, b), k).  _den
expands a key on demand.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_ONE_TERMS = {(0, 0): 1}


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

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


def _pmul_into(acc, a, b):
    """acc += a*b in place; zero coefficients stay for the caller to drop."""
    for (a1, a2), c in a.items():
        for (b1, b2), d in b.items():
            e = (a1 + b1, a2 + b2)
            acc[e] = acc.get(e, 0) + c * d


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


def _p_eval(a, q0, t0):
    acc = Fraction(0)
    for (e0, e1), c in a.items():
        acc += c * q0 ** e0 * t0 ** e1
    return acc


# ---------------------------------------------------------------------------
# the factors Phi_n(q^a t^b)
# ---------------------------------------------------------------------------

# A prime with every n <= 12 dividing _P - 1, so that Phi_n has its roots
# mod _P, where _fdiv's rejection test evaluates; _G is its least primitive
# root, so _G^((_P - 1)/n) is a root of Phi_n for every n dividing _P - 1.
_P = 2147412961
_G = 13

# Memo tables; macdonald.clear_caches() empties them with the others.
_PHI = {}       # n -> coefficients of Phi_n(u), constant term first
_EXPANDED = {}  # (c, i, j, fac) -> c q^i t^j prod(fac) expanded (_den)
_KEYS = {}      # (c, i, j, fac) -> itself, the one copy values share (_key)
_ROOTS = {}     # n -> _G^((_P - 1)/n), a root of Phi_n mod _P
_POINTS = {}    # (n, a, b) -> powers of q0 and t0 mod _P (_point), or None


def _udiv(g, f):
    """g / f for coefficient lists (constant term first) with f[0] = 1, or
    None when f does not divide g.  Dividing from the constant term up,
    the top len(f) - 1 coefficients are what is left over."""
    m = len(f) - 1
    nq = len(g) - m
    if nq <= 0:
        return None
    if m == 1:
        # f = 1 + f1 u: the running sums h_k = g_k - f1 h_{k-1}
        f1 = f[1]
        h = [g[0]]
        for c in g[1:]:
            h.append(c - f1 * h[-1])
        return None if h.pop() else h
    h = list(g)
    for j in range(nq):
        c = h[j]
        if c:
            for l in range(1, m + 1):
                h[j + l] -= c * f[l]
    if any(h[nq:]):
        return None
    return h[:nq]


def _phi(n):
    """Phi_n(u), constant term first, with Phi_1 = 1 - u so that every
    factor has constant term 1: 1 - u^n over Phi_d for each proper d | n."""
    f = _PHI.get(n)
    if f is None:
        f = [1] + [0] * (n - 1) + [-1]
        for d in range(1, n):
            if n % d == 0:
                f = _udiv(f, _phi(d))
        _PHI[n] = f
    return f


def _classes(p, a, b):
    """p's terms by class along (a, b): {base: {k: c}} where the term is
    c q^base0 t^base1 u^k with u = q^a t^b (a or b may be 0, gcd(a, b) = 1)."""
    classes = {}
    for (e0, e1), c in p.items():
        k = e0 // a if a else e1
        base = (e0 - k * a, e1 - k * b)
        cl = classes.get(base)
        if cl is None:
            classes[base] = {k: c}
        else:
            cl[k] = c
    return classes


def _point(key):
    """Tables of the powers of q0 and t0 mod _P for key = (n, a, b), with
    q0^a t0^b = w = _G^((_P - 1)/n) a root of Phi_n: q0 = w^x 3^b and
    t0 = w^y 3^-a for a x + b y = 1.  None when n does not divide _P - 1.
    Stored in _POINTS, and w, which depends on n alone, in _ROOTS."""
    n, a, b = key
    pt = None
    if (_P - 1) % n == 0:
        w = _ROOTS.get(n)
        if w is None:
            w = _ROOTS[n] = pow(_G, (_P - 1) // n, _P)
        x = pow(a, -1, b) if b > 1 else 1 - b
        y = (1 - a * x) // b if b else 0
        pt = (_powers([1, pow(w, x, _P) * pow(3, b, _P) % _P], 8),
              _powers([1, pow(w, y, _P) * pow(3, -a, _P) % _P], 8))
    _POINTS[key] = pt
    return pt


def _powers(tab, size):
    """tab, the powers 1, x, x^2, .. mod _P, extended to size entries as a
    new list: a table another thread may be reading is never changed."""
    tab = list(tab)
    while len(tab) < size:
        tab.append(tab[-1] * tab[1] % _P)
    return tab


def _fdiv(p, key):
    """p / Phi_n(q^a t^b) for key = (n, a, b), or None when it does not
    divide p.  Phi_n(u) divides p exactly when it divides the polynomial in
    u of every class, and the quotient is theirs.

    First p is evaluated mod _P at the point (q0, t0) that _point stores
    for key, where q0^a t0^b is a root of Phi_n.  Where Phi_n(q^a t^b)
    divides p the value is 0, so a nonzero value rejects with no division.
    A zero proves nothing (p may vanish there by chance, or all its
    coefficients be multiples of _P): the division by classes decides and
    gives the quotient.  A key with no point (n does not divide _P - 1) goes
    straight to the division."""
    pt = _POINTS[key] if key in _POINTS else _point(key)
    if pt is not None:
        qs, ts = pt
        try:
            v = sum([c * qs[e0] * ts[e1] for (e0, e1), c in p.items()])
        except IndexError:
            qs = _powers(qs, 2 * max(e[0] for e in p) + 2)
            ts = _powers(ts, 2 * max(e[1] for e in p) + 2)
            _POINTS[key] = qs, ts
            v = sum([c * qs[e0] * ts[e1] for (e0, e1), c in p.items()])
        if v % _P:
            return None
    n, a, b = key
    f = _phi(n)
    out = {}
    for (b0, b1), cl in _classes(p, a, b).items():
        lo = min(cl)
        g = [0] * (max(cl) - lo + 1)
        for k, c in cl.items():
            g[k - lo] = c
        h = _udiv(g, f)
        if h is None:
            return None
        for k, c in enumerate(h, lo):
            if c:
                out[(b0 + k * a, b1 + k * b)] = c
    return out


def _orders(bound):
    """Every n with phi(n) <= bound, ascending (phi(n) >= sqrt(n/2))."""
    top = 2 * bound * bound + 2
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    return [n for n in range(1, top + 1) if phi[n] <= bound]


def _binomial(a, b):
    """The factors of 1 - q^a t^b = 1 - v^g, (a, b) != (0, 0): Phi_d(v) for
    d | g, ascending, with g = gcd(a, b) and v = q^(a/g) t^(b/g)."""
    g = math.gcd(a, b)
    return [(d, a // g, b // g) for d in range(1, g + 1) if g % d == 0]


def _factor(p):
    """p = c q^i t^j prod Phi_n(q^a t^b)^k as (c, i, j, fac), fac a sorted
    tuple of ((n, a, b), k), or None when p has any other factor.

    A binomial factors in closed form (_binomial), 1 + v = (1 - v^2)/(1 - v).
    Anything else is divided by each candidate that fits in its bidegree,
    along each direction whose classes all have two terms or more."""
    i = min(e[0] for e in p)
    j = min(e[1] for e in p)
    c = p.get((i, j))
    if c is None:
        return None
    c = _pcontent_int(p) if c > 0 else -_pcontent_int(p)
    r = _pdiv_int(_pshift(p, -i, -j), c)
    if r[(0, 0)] != 1:
        return None
    if len(r) == 1:
        return c, i, j, ()
    if len(r) == 2:
        (e, s), = ((e, s) for e, s in r.items() if e != (0, 0))
        if s not in (1, -1):
            return None
        keys = _binomial(*e)
        if s > 0:
            keys = [k for k in _binomial(2 * e[0], 2 * e[1]) if k not in keys]
        return c, i, j, tuple((key, 1) for key in keys)
    fac = {}
    for a in range(max(e[0] for e in r) + 1):
        for b in range(max(e[1] for e in r) + 1):
            if math.gcd(a, b) != 1:
                continue
            span = min(max(cl) - min(cl) for cl in _classes(r, a, b).values())
            for n in _orders(span) if span else ():
                key = (n, a, b)
                while True:
                    quot = _fdiv(r, key)
                    if quot is None:
                        break
                    r = quot
                    fac[key] = fac.get(key, 0) + 1
                if len(r) == 1:
                    return c, i, j, tuple(sorted(fac.items()))
    return None


def _den(c, i, j, fac):
    """c q^i t^j prod(fac) expanded, memoized in _EXPANDED; the key
    (1, 0, 0, ()) gives _ONE_TERMS itself."""
    key = (c, i, j, fac)
    p = _EXPANDED.get(key)
    if p is None:
        p = _ONE_TERMS if (c, i, j) == (1, 0, 0) else {(i, j): c}
        for (n, a, b), k in fac:
            f = {(s * a, s * b): v for s, v in enumerate(_phi(n)) if v}
            for _ in range(k):
                p = _pmul(p, f)
        _EXPANDED[key] = p
    return p


def _key(c, i, j, fac):
    """The key (c, i, j, fac), as the one copy _KEYS holds, so that values
    over one denominator share it."""
    key = (c, i, j, fac)
    return _KEYS.setdefault(key, key)


def _fac_of(exps):
    return tuple(sorted((key, k) for key, k in exps.items() if k))


def _cancel(t, key, cands):
    """Divide t and the denominator key (c, i, j, fac) by their common
    factors, as (t, key).  cands lists (factor, most times it may divide
    t); t and key come back as they came when nothing cancels."""
    t0 = t
    c, i, j, fac = key
    if c != 1:
        g = math.gcd(_pcontent_int(t), c)
        if g != 1:
            t = _pdiv_int(t, g)
            c //= g
    if i or j:
        mi = min(i, min(e[0] for e in t)) if i else 0
        mj = min(j, min(e[1] for e in t)) if j else 0
        if mi or mj:
            t = _pshift(t, -mi, -mj)
            i -= mi
            j -= mj
    exps = None
    # a factor has two terms or more, so it cannot divide a monomial
    for f, k in cands if len(t) > 1 else ():
        while k:
            quot = _fdiv(t, f)
            if quot is None:
                break
            t = quot
            k -= 1
            exps = exps or dict(fac)
            exps[f] -= 1
    if t is t0:
        return t, key
    return t, _key(c, i, j, _fac_of(exps) if exps else fac)


def _lcm_sum(parts):
    """sum num/den over parts (num, key, reduced), key den's, as
    (t, key, cands): t over the lcm of the dens, which takes the largest
    exponent of each factor.  A factor of the lcm can divide t only if two
    parts have it to the lcm's power, or one part whose num is not known to
    be coprime to its den (reduced false); cands lists those factors."""
    lcm, c, i, j = {}, 1, 0, 0
    for _, (cp, ip, jp, fac), _ in parts:
        c = c * cp // math.gcd(c, cp)
        i, j = max(i, ip), max(j, jp)
        for f, k in fac:
            if k > lcm.get(f, 0):
                lcm[f] = k
    acc = {}
    for num, (cp, ip, jp, fac), _ in parts:
        e = dict(fac)
        cof = _fac_of({f: k - e.get(f, 0) for f, k in lcm.items()})
        _pmul_into(acc, num, _den(c // cp, i - ip, j - jp, cof))
    fac = _fac_of(lcm)
    cands = [(f, k) for f, k in fac
             if sum(2 - r for _, key, r in parts if (f, k) in key[3]) > 1]
    return {e: v for e, v in acc.items() if v}, _key(c, i, j, fac), cands


# ---------------------------------------------------------------------------
# text form
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


def _signed_join(terms):
    """The sum of the term strings, a term's leading minus written as " - "
    after the first; "0" for no terms."""
    out = []
    for s in terms:
        if out:
            s = " - " + s[1:] if s[0] == "-" else " + " + s
        out.append(s)
    return "".join(out) or "0"


def _p_str(a):
    return _signed_join(_pterm_str(a[e], e[0], e[1]) for e in sorted(a))


_FACTOR = re.compile(r"([0-9]+)|([qt])(?:\^([0-9]+))?")


def _parse_poly(s):
    """The polynomial written as s, a sum of terms c*q^i*t^j as _p_str
    writes them: the integer c first, each factor at most once, i, j >= 0.
    Anything else raises ValueError."""
    parts = re.split(r"\s*([+-])\s*", s.strip())
    # a leading sign leaves an empty first part; otherwise the sign is +
    parts = parts[1:] if parts[0] == "" and len(parts) > 1 else ["+"] + parts
    out = {}
    for sign, term in zip(parts[::2], parts[1::2]):
        c, exps = 1, {}
        for k, f in enumerate(term.split("*")):
            m = _FACTOR.fullmatch(f)
            if m is None or (m[1] and k) or m[2] in exps:
                raise ValueError("not a term c*q^i*t^j: %r" % term)
            if m[1]:
                c = int(m[1])
            else:
                exps[m[2]] = int(m[3] or 1)
        e = (exps.get("q", 0), exps.get("t", 0))
        out[e] = out.get(e, 0) + (c if sign == "+" else -c)
    return out
