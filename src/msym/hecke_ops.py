"""The operator calculus on polynomials: Demazure-Lusztig generators T_i and
their inverses, the rotation omega, Cherednik operators Y_i, the raising
operator Phi_q, the eigenoperator D, and the t-symmetrizer.

All operators are pure maps MultiPoly -> MultiPoly.  T_i is computed per
monomial through the closed divided-difference form, so no rational function
in the x variables is ever materialized and every division is exact by
construction.  Every Hecke step is one pass of _T_with, T_i + (g0 - t), times
1 or t^-1.  Window arguments (lo, hi) let the same operators act on a
contiguous block of variables, which the kernel module uses to act on the x
or y alphabet of a two-alphabet polynomial.
"""

from __future__ import annotations

from .polyring import MultiPoly, _bump, _relabel, _sum_polys
from .qt_field import (QtRational, ONE, T, _multiplier, _settle_pairs,
                       _times, qt_sum)

_TINV = T.inverse()
# T_i's multipliers off the diagonal, t, -t, 1 and -1, as numerator shifts
_PLUS_T, _MINUS_T = (1, 0, 1), (-1, 0, 1)
_PLUS_1, _MINUS_1 = (1, 0, 0), (-1, 0, 0)


def _T_with(f, i, g0):
    """T_i f + (g0 - t) f in one pass, where
    T_i f = t f + (t x_i - x_{i+1}) (K_{i,i+1} f - f)/(x_i - x_{i+1}).

    Each term c x^e contributes c g0 to x^e and, unless e_i = e_{i+1},
    c t or -c t, and -c or c, to the monomials between x^e and its
    exchange, as qt_field._times pairs settled once (_settle_pairs).  T_i
    is g0 = t; by (T_i - t)(T_i + 1) = 0, t T_i^{-1} is g0 = 1, and the
    E_eta step's T_i - c is g0 = t - c."""
    n = f.nvars
    if not 1 <= i <= n - 1:
        raise IndexError("T_%d undefined for %d variables" % (i, n))
    i -= 1
    m0 = _multiplier(g0)
    # for g0 = t the diagonal pair is also the exchange's t multiple
    mt = m0 if _PLUS_T == m0 else _PLUS_T
    out = {}
    for e, c in f.terms.items():
        p0 = _times(c, m0)
        _bump(out, e, p0)
        a, b = e[i], e[i + 1]
        if a == b:
            continue
        hi, lo, mu, mv = ((b, a, mt, _MINUS_1) if b > a
                          else (a, b, _MINUS_T, _PLUS_1))
        u = p0 if mu is m0 else _times(c, mu)
        v = _times(c, mv)
        le = list(e)
        for k in range(hi - lo):
            le[i], le[i + 1] = hi - k, lo + k
            _bump(out, tuple(le), u)
            le[i], le[i + 1] = hi - 1 - k, lo + 1 + k
            _bump(out, tuple(le), v)
    return MultiPoly._raw(n, _settle_pairs(out))


def apply_T(f, i):
    """The Demazure-Lusztig generator T_i."""
    return _T_with(f, i, T)


def apply_Tbar(f, i):
    """Inverse generator: T_i^{-1} = t^{-1} (T_i + 1 - t)."""
    return _T_with(f, i, ONE).scale(_TINV)


def apply_T_word(f, word):
    """Apply T_{word[0]} T_{word[1]} ... (rightmost first)."""
    for j in reversed(word):
        f = apply_T(f, j)
    return f


def apply_Tbar_word(f, word):
    """Apply T_{word[0]}^{-1} T_{word[1]}^{-1} ...: the passes
    t T_j^{-1}, then one scale by t^-len(word)."""
    for j in reversed(word):
        f = _T_with(f, j, ONE)
    return f.scale(QtRational.monomial(1, 0, -len(word)))


def apply_omega(f, lo=1, hi=None):
    """omega = K_{hi-1,hi} ... K_{lo,lo+1} tau_lo on the variable window:
    x_lo moves to position hi and gains a factor q."""
    hi = f.nvars if hi is None else hi
    src = list(range(f.nvars))
    src.insert(hi - 1, src.pop(lo - 1))
    return _relabel(f, src, ((lo - 1, 1),))


def apply_Y(f, i, lo=1, hi=None):
    """Cherednik operator Y_i = t^{i-n} T_i..T_{n-1} omega Tbar_1..Tbar_{i-1}
    acting on the window (indices relative to the window)."""
    n_all = f.nvars
    hi = n_all if hi is None else hi
    n = hi - lo + 1
    if not 1 <= i <= n:
        raise IndexError("Y_%d undefined on window of size %d" % (i, n))
    f = apply_Tbar_word(f, range(lo, lo + i - 1))
    f = apply_T_word(apply_omega(f, lo, hi), range(lo + i - 1, hi))
    return f.scale(QtRational.monomial(1, 0, i - n))


def apply_Phi(f):
    """Raising operator Phi_q = t^{1-N} T_{N-1} ... T_1 x_1."""
    n = f.nvars
    g = MultiPoly._raw(n, {(e[0] + 1,) + e[1:]: c
                           for e, c in f.terms.items()})
    g = apply_T_word(g, range(n - 1, 0, -1))
    return g.scale(QtRational.monomial(1, 0, 1 - n))


def apply_D(f, m, lo=1, hi=None):
    """D = Y_{m+1} + ... + Y_N - sum_{i=m+1}^N t^{1-i} on the window."""
    n_all = f.nvars
    hi = n_all if hi is None else hi
    n = hi - lo + 1
    if m >= n:
        raise ValueError("D needs m < window size")
    scal = qt_sum([QtRational.monomial(1, 0, 1 - i)
                   for i in range(m + 1, n + 1)])
    ys = [apply_Y(f, i, lo, hi) for i in range(m + 1, n + 1)]
    return _sum_polys(n_all, ys + [f.scale(-scal)])


def reduced_word(perm):
    """A reduced word for a permutation in one-line notation (1-based)."""
    a = list(perm)
    tail = []
    changed = True
    while changed:
        changed = False
        for i in range(len(a) - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                tail.append(i + 1)
                changed = True
                break
    tail.reverse()
    return tail


def longest_word(k):
    """Reduced word of the longest element of S_k: (1)(2 1)(3 2 1)..."""
    word = []
    for j in range(1, k):
        word.extend(range(j, 0, -1))
    return word


def apply_tau_K_Tbar(f, m):
    """tau_1..tau_m K_{w_m} Tbar_{w_m} f: the longest-element inverse
    generators on x_1..x_m, the reversal of x_1..x_m, then x_i -> q x_i for
    i <= m."""
    h = apply_Tbar_word(f, longest_word(m))
    src = [*range(m - 1, -1, -1), *range(m, f.nvars)]
    return _relabel(h, src, [(j, 1) for j in range(m)])


def symmetrize_t(f, m, naive=False):
    """S^t_{m+1,N} f = sum over S_{N-m} of T_sigma f (generator indices
    shifted by m).  Default: the recursive one-sided factorization, O((N-m)^2)
    generator applications; naive=True sums all (N-m)! terms (test oracle)."""
    n = f.nvars
    if m > n:
        raise ValueError("m exceeds number of variables")
    if n - m <= 1:
        return f
    if naive:
        import itertools
        acc = MultiPoly.zero(n)
        for sigma in itertools.permutations(range(1, n - m + 1)):
            word = [j + m for j in reduced_word(sigma)]
            acc = acc + apply_T_word(f, word)
        return acc
    for top in range(m + 2, n + 1):
        f = apply_Lprime(f, m, top)
    return f


def apply_R(f, m, n):
    """R_{m+1,n} = 1 + T_{m+1} + T_{m+1}T_{m+2} + ... + T_{m+1}..T_{n-1},
    as the chain f + T_{m+1}(f + T_{m+2}(... + T_{n-1} f))."""
    g = f
    for j in range(n - 1, m, -1):
        g = f + apply_T(g, j)
    return g


def _chain_sum(f, steps):
    """f + T_{s_1} f + T_{s_2} T_{s_1} f + ... for steps s_1, s_2, ..., in
    one accumulation."""
    hs = [f]
    for j in steps:
        hs.append(apply_T(hs[-1], j))
    return _sum_polys(f.nvars, hs)


def apply_L(f, m, n):
    """L_{m+1,n} = 1 + T_{m+1} + T_{m+2}T_{m+1} + ... + T_{n-1}..T_{m+1}."""
    return _chain_sum(f, range(m + 1, n))


def apply_Lprime(f, m, n):
    """L'_{m+1,n} = 1 + T_{n-1} + T_{n-2}T_{n-1} + ... + T_{m+1}..T_{n-1}."""
    return _chain_sum(f, range(n - 1, m, -1))
