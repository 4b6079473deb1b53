"""Independent oracles the tests compare the library against, and the check
that every case of an identity holds."""

import math
from collections import Counter

from msym.combinatorics import circle_rows, partitions_of
from msym.hecke_ops import (apply_Lprime, apply_Phi, apply_T, apply_Tbar,
                            symmetrize_t)
from msym.kernels import (BiPoly, _pair_reps, _sym_bracket,
                          _times_pair_series, _z_qt_inverse, km_truncated)
from msym.macdonald import _chain_scale, _E_step, _walk, eta_for, nonsym_E
from msym.polyring import MultiPoly, _relabel
from msym.qt_field import QtRational, ONE, T, ZERO, qt_product, qt_sum
from msym.qt_ring import _binomial, _classes, _den, _fac_of, _key, _phi
from msym.structure import expand_in_basis, pair_p_coeffs


def holds(cases):
    """Whether both sides of every (witness, lhs, rhs) case are equal."""
    return all(lhs == rhs for _, lhs, rhs in cases)


def circle_rows_by_count(comp):
    """Row of each circle in the composition's diagram by counting: one plus
    the entries larger than comp[i], plus the equal entries before it."""
    n = len(comp)
    return tuple(
        1 + sum(1 for j in range(n) if comp[j] > comp[i])
        + sum(1 for j in range(i) if comp[j] == comp[i])
        for i in range(n))


def k0_product_truncated(Nx, Ny, maxdeg):
    """Independent product form of K_0: for each pair (i,j) the factor
    prod_k (1 - t x_i y_j q^k)/(1 - x_i y_j q^k) expands by the q-binomial
    theorem as sum_n z^n prod_{l=1..n} (1 - t q^{l-1})/(1 - q^l)."""
    coeffs = [ONE]
    for n in range(1, maxdeg + 1):
        coeffs.append(coeffs[-1]
                      * (ONE - T * QtRational.monomial(1, n - 1, 0))
                      / (ONE - QtRational.monomial(1, n, 0)))
    return _times_pair_series(Nx, Ny, [
        (i, j, coeffs) for i in range(1, Nx + 1) for j in range(1, Ny + 1)],
        maxdeg)


def k0_by_pair_sums(Nx, Ny, maxdeg):
    """K_0 at its pairs of sorted exponents, {(mu, nu): c}, summed for each
    ordered pair on its own: sum_lambda z_lambda(q,t)^{-1} p_lambda(x)
    p_lambda(y) through kernels._pair_reps, with every term of p_lambda
    from the product oracle at each alphabet's own size."""
    return _pair_reps(maxdeg, 0, [
        (_z_qt_inverse(lam), powersum_product(lam, Nx).terms,
         powersum_product(lam, Ny).terms)
        for d in range(maxdeg + 1) for lam in partitions_of(d)])


def km_by_full_product(m, Nx, Ny, maxdeg):
    """K_m as the truncated product of every monomial of K_0 with every
    term of the symmetrized bracket t^{-binom(m,2)} T_{w_m}[bracket], its
    2m variables embedded as x_1..x_m, y_1..y_m of the alphabets."""
    src = [*range(m), *[-1] * (Nx - m), *range(m, 2 * m), *[-1] * (Ny - m)]
    bracket = _relabel(_sym_bracket(m, maxdeg, qinv=True), src, ())
    return km_truncated(0, Nx, Ny, maxdeg).mul(BiPoly(Nx, Ny, bracket),
                                               maxdeg)


def cauchy_lhs_by_full_product(m, N, maxdeg):
    """The Cauchy left side K_0(x, y~) prod_{i<j<=m} (1-t x_i y_j)/(1-x_i y_j)
    * prod_{i<=m} 1/(1-x_i y_i) on alphabets of size N, y_1..y_m scaled by
    q, as a BiPoly: every monomial of K_0 times every term of the bracket,
    itself one series in x_i y_j per pair."""
    ratio = [ONE] + [ONE - T] * maxdeg
    k0 = _relabel(km_truncated(0, N, N, maxdeg).poly, range(2 * N),
                  [(j, 1) for j in range(N, N + m)])
    return BiPoly(N, N, k0).mul(_times_pair_series(N, N, [
        (i, j, ratio if j > i else [ONE] * (maxdeg + 1))
        for i in range(1, m + 1) for j in range(i, m + 1)], maxdeg), maxdeg)


def apply_T_by_definition(f, i):
    """T_i f = t f + (t x_i - x_{i+1}) (K_{i,i+1} f - f)/(x_i - x_{i+1}),
    one monomial of f at a time.  The quotient by x_i - x_{i+1} is taken by
    synthetic division: the term c x_i^p x_{i+1}^r of what is left with the
    largest p gives c x_i^{p-1} x_{i+1}^r to the quotient and
    c x_i^{p-1} x_{i+1}^{r+1} back to what is left."""
    n, k = f.nvars, i - 1
    factor = MultiPoly.variable(n, i).scale(T) - MultiPoly.variable(n, i + 1)
    out = f.scale(T)
    for e, c in f.terms.items():
        swapped = list(e)
        swapped[k], swapped[k + 1] = e[k + 1], e[k]
        left = {tuple(swapped): c}
        left[e] = left.get(e, ZERO) - c
        quotient = {}
        while True:
            left = {g: v for g, v in left.items() if v}
            if not left:
                break
            g = max(left, key=lambda g: g[k])
            v = left.pop(g)
            assert g[k] > 0, "K f - f is not divisible by x_i - x_{i+1}"
            h = list(g)
            h[k] -= 1
            quotient[tuple(h)] = quotient.get(tuple(h), ZERO) + v
            h[k + 1] += 1
            left[tuple(h)] = left.get(tuple(h), ZERO) + v
        out = out + factor * MultiPoly(n, quotient)
    return out


def powersum_product(lam, N):
    """p_lambda(x_1..x_N) as the product of the MultiPolys
    p_k = x_1^k + .. + x_N^k over the parts k of lam."""
    f = MultiPoly.one(N)
    for k in lam:
        f = f * MultiPoly(N, {tuple(k if i == j else 0 for j in range(N)): ONE
                              for i in range(N)})
    return f


def u_normalization(mpart, N):
    """u_{Lambda,N}(t) = t^binom(k,2) prod [n]_{1/t}! over the multiplicities
    n of the k = N - m parts of (lambda, 0, ..): the factor making P_Lambda
    monic, with [n]_{1/t}! = t^-binom(n,2) prod_{j<=n} (1-t^j)/(1-t)."""
    k = N - mpart.m
    counts = Counter(mpart.lam + (0,) * (k - len(mpart.lam))).values()
    return qt_product(1, 0, (k * (k - 1) - sum(n * (n - 1) for n in counts))
                      // 2, [(0, j) for n in counts for j in range(1, n + 1)],
                      [(0, 1)] * k)


def unlifted_E(eta):
    """E_eta built in len(eta) variables at every step: the E walk over a
    private memo table with _E_rule's lift case left out (_E_step)."""
    return _walk({}, tuple(eta), _E_step)


def unlifted_P(mpart, N):
    """P_Lambda built in N variables, never lifted from fewer: the chains
    L'_{m+1,N} .. L'_{m+1,m+n0+1} on unlifted_E, times _chain_scale."""
    m = mpart.m
    n0 = N - m - len(mpart.lam)
    poly = unlifted_E(eta_for(mpart, N))
    for top in range(m + max(n0, 1) + 1, N + 1):
        poly = apply_Lprime(poly, m, top)
    return poly.scale(_chain_scale(mpart, N))


def symmetrized_P(mpart, N):
    """The paper's definition P_Lambda = S^t_{m+1,N} E_eta / u_{Lambda,N}
    in N >= m + length(lambda) variables: the full symmetrizer, then the
    inverse of u."""
    sym = symmetrize_t(nonsym_E(eta_for(mpart, N)).poly, mpart.m)
    return sym.scale(u_normalization(mpart, N).inverse())


def apply_omega_inv(f, lo=1, hi=None):
    """Inverse of hecke_ops.apply_omega: x_hi moves to position lo and
    gains a factor 1/q."""
    hi = f.nvars if hi is None else hi
    src = list(range(f.nvars))
    src.insert(lo - 1, src.pop(hi - 1))
    return _relabel(f, src, ((hi - 1, -1),))


def apply_Y_inv(f, i, lo=1, hi=None):
    """Inverse Cherednik operator
    Y_i^{-1} = t^{n-i} T_{i-1}..T_1 omega^{-1} Tbar_{n-1}..Tbar_i on the
    window (indices relative to the window)."""
    hi = f.nvars if hi is None else hi
    n = hi - lo + 1
    if not 1 <= i <= n:
        raise IndexError("Y_%d undefined on window of size %d" % (i, n))
    off = lo - 1
    for j in range(i, n):
        f = apply_Tbar(f, j + off)
    f = apply_omega_inv(f, lo, hi)
    for j in range(1, i):
        f = apply_T(f, j + off)
    return f.scale(QtRational.monomial(1, 0, n - i))


def raise_by_Phi(theta, e_theta):
    """E_eta from e_theta = E_theta across the Knop-Sahi raising step, with
    eta = (theta_2, .., theta_N, theta_1 + 1), as the cyclic raising
    operator: E_eta = t^{N - r} Phi_q E_theta, r = r_theta(1)."""
    n = len(theta)
    return apply_Phi(e_theta).scale(
        QtRational.monomial(1, 0, n - circle_rows(theta)[0]))


def _udiv_long(g, f):
    """g / f for coefficient lists (constant term first) with f[0] = 1 by
    long division from the constant term up, or None when f does not
    divide g."""
    m = len(f) - 1
    nq = len(g) - m
    if nq <= 0:
        return None
    h = list(g)
    for j in range(nq):
        for l in range(1, m + 1):
            h[j + l] -= h[j] * f[l]
    if any(h[nq:]):
        return None
    return h[:nq]


def fdiv_by_classes(p, key):
    """p / Phi_n(q^a t^b) for key = (n, a, b), or None when it does not
    divide p: Phi_n(u) divides each class of p's terms along (a, b), a
    polynomial in u = q^a t^b, by long division.  p(1, 1) and, for n <= 2,
    p at an integer root of Phi_n(q^a t^b) reject first."""
    n, a, b = key
    f = _phi(n)
    at_one = sum(f)
    s = sum(p.values())
    if s % at_one if at_one else s:
        return None
    if n <= 2:
        top = max(e[1] for e in p)
        fq = a & 1 if n == 2 else 0   # 1: odd powers of q change sign
        ft = fq ^ 1 if n == 2 else 0  # 1: odd powers of t change sign
        if sum((-c if (e0 & fq) ^ (e1 & ft) else c)
               << (b * e0 + a * (top - e1)) for (e0, e1), c in p.items()):
            return None
    out = {}
    for (b0, b1), cl in _classes(p, a, b).items():
        lo = min(cl)
        g = [0] * (max(cl) - lo + 1)
        for k, c in cl.items():
            g[k - lo] = c
        h = _udiv_long(g, f)
        if h is None:
            return None
        for k, c in enumerate(h, lo):
            if c:
                out[(b0 + k * a, b1 + k * b)] = c
    return out


def apply_Psi(f, m):
    """Psi_N = (1-t)(1 + T_{N-1} + T_{N-2}T_{N-1} + ... + T_m..T_{N-1})
    Phi_q, the operator turning the 1-circle of an m-partition into a
    square."""
    if m < 1:
        raise ValueError("the raising relation needs m >= 1")
    g = apply_Lprime(apply_Phi(f), m - 1, f.nvars)
    return g.scale(ONE - T)


def scalar_product_by_expansion(f, g, m, verify=True):
    """<f, g>_m with both operands expanded over p_Lambda(x;t) in each
    common degree, then paired diagonally by <p_L, p_L>_m."""
    if f.nvars != g.nvars:
        raise ValueError("operands realized in different variable counts")
    gc = g.homogeneous_components()
    return qt_sum([
        pair_p_coeffs(expand_in_basis(fd, m, "p_Lambda_t", verify).coeffs,
                      expand_in_basis(gc[d], m, "p_Lambda_t", verify).coeffs)
        for d, fd in f.homogeneous_components().items() if d in gc])


def qt_product_by_phi(c, i, j, ups, downs):
    """qt_product's value with its numerator always expanded over
    Phi_n(q^a t^b) through qt_ring._den: the binomials' factors counted,
    those left with positive exponents multiplied out."""
    exps = {}
    for pairs, s in ((downs, -1), (ups, 1)):
        for a, b in pairs:
            if not (a or b):
                if s < 0:
                    raise ZeroDivisionError("1 - q^0 t^0 in a denominator")
                return ZERO
            for key in _binomial(a, b):
                exps[key] = exps.get(key, 0) + s
    num = _den(c.numerator, max(i, 0), max(j, 0),
               _fac_of({key: max(k, 0) for key, k in exps.items()}))
    return QtRational._raw(num, (c.denominator, max(-i, 0), max(-j, 0),
                                 _fac_of({key: max(-k, 0)
                                          for key, k in exps.items()})))


def lcm_plan_by_rescanning(sig):
    """qt_ring._lcm_plan worked out factor by factor: the lcm's exponents
    first, then each cofactor as the lcm's exponents minus the part's, and
    each candidate by rescanning every part's key for the factor at the
    lcm's power."""
    lcm, c, i, j = {}, 1, 0, 0
    for (cp, ip, jp, fac), _ in sig:
        c = c * cp // math.gcd(c, cp)
        i, j = max(i, ip), max(j, jp)
        for f, k in fac:
            if k > lcm.get(f, 0):
                lcm[f] = k
    cofs = []
    for (cp, ip, jp, fac), _ in sig:
        e = dict(fac)
        cof = _fac_of({f: k - e.get(f, 0) for f, k in lcm.items()})
        cofs.append(_den(c // cp, i - ip, j - jp, cof))
    fac = _fac_of(lcm)
    cands = [(f, k) for f, k in fac
             if sum(2 - r for key, r in sig if (f, k) in key[3]) > 1]
    return cofs, _key(c, i, j, fac), cands
