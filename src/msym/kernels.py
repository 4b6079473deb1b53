"""Degree-truncated reproducing kernels over two alphabets, the Cauchy-type
identities, and the Hecke/eigenoperator symmetries of kernels.

Each identity is a generator *_cases(m, maxdeg) of (witness, lhs, rhs)
cases with MultiPoly sides, one case per comparison, as cli._run takes
them; the witness is None where the identity makes a single comparison.

A BiPoly is a polynomial in x_1..x_nx, y_1..y_ny stored as one MultiPoly on
the concatenated variable list, with truncation by x-degree and y-degree
(every identity here is bihomogeneous, so truncation is sound).  Pair sums
run over orbit representatives.  K_0 is one table per call, one qt_sum per
unordered pair of partitions (_k0_reps), and every kernel past the degree
guard fails there before any sum.  K_m is computed at its orbit
representatives too: one product of a K_0 coefficient with a bracket term
per pair of K_0's sorted representatives, added at the m-representatives of
their orbits (_k0_times); K_0 itself is never expanded before the product.
Each pair (x_i, y_j) of the bracket multiplies in one truncated series in
z = c x_i y_j (_times_pair_series):
(1 - t z)/(1 - z) = 1 + sum_{n>=1} (1 - t) z^n, or 1/(1 - z).

The Cauchy identities, K_m against its P-basis expansion and
K_m(x,y) = K_m(y,x) compare tables at pairs of m-representatives, never
full orbits: both sides are symmetric in x_{m+1}.. and in y_{m+1}.., each
the write-out (_orbit_pairs) of its table, so equal tables mean equal
sides.  The Cauchy left side is K-bar_m relabelled (_cauchy_lhs); the xy
symmetry compares K_m's table with its mirror {(b, a): c}.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .qt_field import QtRational, ONE, T, qt_product, qt_sum
from .polyring import MultiPoly, _bump, _check_degree, _relabel, _settle
from .combinatorics import (MPartition, inversions, partitions_of,
                            compositions_of, is_orbit_rep, orbit,
                            orbit_reps, mpartitions_upto)
from .macdonald import msym_P, nonsym_E, hall_littlewood_H, _c_pairs
from .structure import _norm_pairs, _powersum_counts, _z_lambda
from .hecke_ops import apply_T, apply_T_word, apply_Y, apply_D, longest_word


class BiPoly:
    """Polynomial in two alphabets, truncation-aware."""

    __slots__ = ("nx", "ny", "poly")

    def __init__(self, nx, ny, poly=None):
        self.nx = nx
        self.ny = ny
        self.poly = poly if poly is not None else MultiPoly.zero(nx + ny)
        if self.poly.nvars != nx + ny:
            raise ValueError("variable count mismatch")

    @classmethod
    def one(cls, nx, ny):
        return cls(nx, ny, MultiPoly.one(nx + ny))

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.nx == other.nx
                and self.ny == other.ny and self.poly == other.poly)

    def mul(self, other, maxdeg):
        """Product truncated to x-degree <= maxdeg and y-degree <= maxdeg."""
        if self.nx != other.nx or self.ny != other.ny:
            raise ValueError("alphabet mismatch")
        nx = self.nx
        a = [(e, sum(e[:nx]), sum(e[nx:]), c) for e, c in self.poly.terms.items()]
        b = [(e, sum(e[:nx]), sum(e[nx:]), c) for e, c in other.poly.terms.items()]
        out = {}
        for ea, xa, ya, ca in a:
            for eb, xb, yb, cb in b:
                if xa + xb > maxdeg or ya + yb > maxdeg:
                    continue
                _bump(out, tuple(u + v for u, v in zip(ea, eb)), ca * cb)
        return BiPoly(self.nx, self.ny,
                      MultiPoly._raw(self.poly.nvars, _settle(out)))

    def map_T_x(self, i):
        return BiPoly(self.nx, self.ny, apply_T(self.poly, i))

    def map_T_y(self, i):
        return BiPoly(self.nx, self.ny, apply_T(self.poly, self.nx + i))

    def __str__(self):
        return str(self.poly)


def _times_pair_series(nx, ny, pairs, maxdeg):
    """prod sum_k coeffs[k] (x_i y_j)^k over the (i, j, coeffs) in pairs,
    truncated, in nx + ny variables: one product per pair."""
    acc = BiPoly.one(nx, ny)
    for i, j, coeffs in pairs:
        terms = {}
        for k, c in enumerate(coeffs):
            e = [0] * (nx + ny)
            e[i - 1] = k
            e[nx + j - 1] = k
            terms[tuple(e)] = c
        acc = acc.mul(BiPoly(nx, ny, MultiPoly(nx + ny, terms)), maxdeg)
    return acc


def _rep_terms(f, m, maxdeg):
    """The terms of f of degree <= maxdeg at orbit representatives."""
    return [(e, v) for e, v in f.items()
            if sum(e) <= maxdeg and is_orbit_rep(e, m)]


def _pair_reps(maxdeg, m, terms):
    """sum c f(x) g(y) over the (c, f, g) in terms, truncated, at its pairs
    of orbit representatives: {(a, b): coefficient}.  f and g map
    exponents to coefficients and are symmetric in the variables after the
    m-th; each pair gets one accumulation, reduced once."""
    out = {}
    for c, f, g in terms:
        cg = [(e, v * c) for e, v in _rep_terms(g, m, maxdeg)]
        for ef, v in _rep_terms(f, m, maxdeg):
            for e, w in cg:
                _bump(out, (ef, e), v * w)
    return _settle(out)


def _orbit_pairs(Nx, Ny, m, reps):
    """The BiPoly with reps at its pairs of orbit representatives: the
    coefficient object of (a, b) goes to every monomial of the orbit pair
    (a, S mu; b, S nu)."""
    orbits = {e: orbit(e, m) for e in {e for pair in reps for e in pair}}
    full = {ea + eb: c for (a, b), c in reps.items()
            for ea in orbits[a] for eb in orbits[b]}
    return BiPoly(Nx, Ny, MultiPoly._raw(Nx + Ny, full))


def _at_reps(n, reps):
    """reps {(a, b): c} as a MultiPoly in n variables, with c at a + b."""
    return MultiPoly._raw(n, {a + b: c for (a, b), c in reps.items()})


def _z_qt_inverse(lam):
    """1/z_lambda(q,t) = prod (1-t^{lam_i})/(1-q^{lam_i}) / z_lambda in
    closed form: one qt_product, with no inverse and no trial division."""
    return qt_product(Fraction(1, _z_lambda(lam)), 0, 0,
                      [(0, part) for part in lam], [(part, 0) for part in lam])


def _k0_reps(Nx, Ny, maxdeg):
    """K_0, truncated, at its pairs of sorted exponents: {(mu, nu): c}.
    At partitions mu, nu of d, c = sum_{lambda |- d} z_lambda(q,t)^{-1}
    R_lambda,mu R_lambda,nu with R_lambda,mu = [x^mu] p_lambda, an integer
    count that does not depend on the alphabet's size: one qt_sum per
    unordered pair {mu, nu}, written to (mu, nu) and (nu, mu) wherever each
    side fits its alphabet.  Past the degree guard: DegreeGuardError."""
    _check_degree(maxdeg)
    n = max(Nx, Ny)
    out = {}
    for d in range(maxdeg + 1):
        terms = []
        for lam in partitions_of(d):
            # a term of p_lambda fills at most len(lam) variables
            counts = _powersum_counts(lam, min(n, len(lam)))
            terms.append((_z_qt_inverse(lam),
                          {tuple(filter(None, e)): c
                           for e, c in counts.items() if is_orbit_rep(e, 0)}))
        mus = partitions_of(d, max_length=n)
        for k, mu in enumerate(mus):
            for nu in mus[k:]:
                at = [(a + (0,) * (Nx - len(a)), b + (0,) * (Ny - len(b)))
                      for a, b in ((mu, nu), (nu, mu))
                      if len(a) <= Nx and len(b) <= Ny]
                if at:
                    c = qt_sum([z * (r[mu] * r[nu]) for z, r in terms
                                if mu in r and nu in r])
                    out.update(dict.fromkeys(at, c))
    return out


def _k0_times(k0, maxdeg, m, bracket):
    """K_0 times bracket, truncated, at its pairs of m-representatives, as
    {(a, b): c}, for K_0's table k0 (_k0_reps, which callers build before
    the bracket, so that a maxdeg past the degree guard fails before any
    work).  bracket is a MultiPoly in x_1..x_m, y_1..y_m, the 2m
    variables its terms use.  So kappa + beta is an m-representative exactly
    when kappa is, and K_0 is fully symmetric: each sorted pair (mu, nu) of
    K_0 and bracket term beta make one product c b_beta, added at
    (kappa + beta_x, lambda + beta_y) for the m-representatives kappa of
    mu's orbit and lambda of nu's."""
    reps = {e: orbit_reps(e, m) for e in {e for pair in k0 for e in pair}}
    beta = [(e[:m], e[m:], sum(e[:m]), sum(e[m:]), b)
            for e, b in bracket.terms.items()]
    out = {}
    for (mu, nu), c in k0.items():
        dx, dy = sum(mu), sum(nu)
        for bx, by, sx, sy, b in beta:
            if dx + sx > maxdeg or dy + sy > maxdeg:
                continue
            cb = c * b
            ys = [tuple(map(add, by, e[:m])) + e[m:] for e in reps[nu]]
            for e in reps[mu]:
                ex = tuple(map(add, bx, e[:m])) + e[m:]
                for ey in ys:
                    _bump(out, (ex, ey), cb)
    return _settle(out)


def _km_bracket(m, maxdeg, qinv):
    """prod_{i+j<=m} (1 - t c x_i y_j)/(1 - c x_i y_j) prod_{i+j=m+1}
    1/(1 - c x_i y_j), c = 1/q (qinv) or 1, truncated, in x_1..x_m,
    y_1..y_m; one series per pair."""
    s = -1 if qinv else 0
    geometric = [QtRational.monomial(1, s * k, 0) for k in range(maxdeg + 1)]
    ratio = [ONE] + [(ONE - T) * c for c in geometric[1:]]
    return _times_pair_series(m, m, [
        (i, j, ratio if i + j <= m else geometric)
        for i in range(1, m + 1) for j in range(1, m + 2 - i)], maxdeg)


def _sym_bracket(m, maxdeg, qinv):
    """t^{-binom(m,2)} T^{(x)}_{w_m} of _km_bracket(...), in 2m variables."""
    bracket = _km_bracket(m, maxdeg, qinv).poly
    return apply_T_word(bracket, longest_word(m)).scale(
        QtRational.monomial(1, 0, -(m * (m - 1) // 2)))


def _km_reps(m, Nx, Ny, maxdeg):
    """K_m = t^{-binom(m,2)} K_0(x,y) T^{(x)}_{w_m}[bracket], truncated, at
    its pairs of m-representatives: {(a, b): c}, K_0's table at m = 0."""
    if Nx < m or Ny < m:
        raise ValueError("alphabets must have at least m letters")
    k0 = _k0_reps(Nx, Ny, maxdeg)
    if not m:
        return k0
    return _k0_times(k0, maxdeg, m, _sym_bracket(m, maxdeg, qinv=True))


def km_truncated(m, Nx, Ny, maxdeg):
    """K_m, truncated, written out to every monomial (_orbit_pairs); at
    m = 0, K_0(x,y) = sum_lambda z_lambda(q,t)^{-1} p_lambda(x) p_lambda(y)."""
    return _orbit_pairs(Nx, Ny, m, _km_reps(m, Nx, Ny, maxdeg))


def _kbar(m, N, maxdeg):
    """K-bar_m = K_0(x,y) _km_bracket(qinv=True), truncated, on alphabets
    of size N, at its pairs of m-representatives (_k0_times)."""
    return _k0_times(_k0_reps(N, N, maxdeg), maxdeg, m,
                     _km_bracket(m, maxdeg, qinv=True).poly)


def _P_basis(m, N, maxdeg):
    """{Lambda: P_Lambda in N variables} over the m-partitions of degree
    <= maxdeg realized in N variables."""
    return {lab: msym_P(lab, N).poly
            for lab in mpartitions_upto(m, maxdeg, N)}


def b_coefficient(mpart):
    """b_Lambda = 1/<P_Lambda, P_Lambda>_m, the inverse of
    structure.norm_formula in closed form: one qt_product, with no inverse
    and no trial division."""
    return qt_product(1, -sum(mpart.a), -inversions(mpart.a),
                      _c_pairs(mpart), _norm_pairs(mpart))


def _km_sum_reps(m, N, maxdeg):
    """sum_Lambda b_Lambda P_Lambda(x) P_Lambda(y), b_Lambda = 1/<P_Lambda,
    P_Lambda>_m, on alphabets of size N at its pairs of m-representatives."""
    return _pair_reps(maxdeg, m, (
        (b_coefficient(lab), p.terms, p.terms)
        for lab, p in _P_basis(m, N, maxdeg).items()))


def km_sum_truncated(m, N, maxdeg):
    """The P-basis expansion of K_m written out to every monomial."""
    return _orbit_pairs(N, N, m, _km_sum_reps(m, N, maxdeg))


def km_expansion_cases(m, maxdeg):
    """K_m against its P-basis expansion up to the truncation degree, on
    alphabets of size m + maxdeg."""
    N = m + maxdeg
    yield (None, _at_reps(2 * N, _km_reps(m, N, N, maxdeg)),
           _at_reps(2 * N, _km_sum_reps(m, N, maxdeg)))


def hl_kernel_cases(m, maxdeg):
    """t-symmetrized Hall-Littlewood kernel:
    t^{-binom(m,2)} T^{(x)}_{w_m}[prod(1-t x_i y_j)/prod(1-x_i y_j)]
      = sum_a t^{-Inv(a)} H_a(x;t) H_a(y;t)."""
    lhs = _sym_bracket(m, maxdeg, qinv=False)
    hs = {a: hall_littlewood_H(a).poly
          for d in range(maxdeg + 1) for a in compositions_of(d, m)}
    rhs = _pair_reps(maxdeg, m, (
        (QtRational.monomial(1, 0, -inversions(a)), h.terms, h.terms)
        for a, h in hs.items()))
    yield None, lhs, _at_reps(2 * m, rhs)


def _cauchy_lhs(m, N, maxdeg):
    """K_0(x, y~) prod_{i<j<=m} (1-t x_i y_j)/(1-x_i y_j)
    * prod_{i<=m} 1/(1-x_i y_i), y_1..y_m scaled by q, on alphabets of size
    N at pairs of m-representatives: K-bar_m with y_j -> q y_{m+1-j} for
    j <= m, as K_0 is symmetric in y and i + j <= m means i < m + 1 - j."""
    src = [*range(N), *range(N + m - 1, N - 1, -1), *range(N + m, 2 * N)]
    return _relabel(_at_reps(2 * N, _kbar(m, N, maxdeg)), src,
                    [(j, 1) for j in range(N, N + m)])


def _cauchy_coeff(diagram):
    """The Cauchy expansion coefficient: the product over squares of
    (1-q^{a}t^{l+1})/(1-q^{a~+1}t^{l~}), the inverse of the norm formula
    without its q^{|a|} t^{Inv(a)} prefactor."""
    return qt_product(1, 0, 0, _c_pairs(diagram), _norm_pairs(diagram))


def cauchy_cases(m, maxdeg):
    """K_0(x,y~) prod_{i<j<=m}(1-tx_iy_j)/(1-x_iy_j) prod_i 1/(1-x_iy_i)
      = sum_Lambda a_Lambda P_Lambda(x;q,t) P_Lambda(y;1/q,1/t), on
    alphabets of size m + maxdeg, both sides at m-representative pairs."""
    N = m + maxdeg
    rhs = _pair_reps(maxdeg, m, (
        (_cauchy_coeff(lab), p.terms, p.invert_params().terms)
        for lab, p in _P_basis(m, N, maxdeg).items()))
    yield None, _cauchy_lhs(m, N, maxdeg), _at_reps(2 * N, rhs)


def cauchy_identity_check(m, maxdeg):
    """Whether every case of cauchy_cases(m, maxdeg) holds exactly."""
    return all(lhs == rhs for _, lhs, rhs in cauchy_cases(m, maxdeg))


def nonsym_cauchy_cases(m, maxdeg):
    """The same identity on alphabets of length m, expanded over the
    non-symmetric Macdonald polynomials E_eta."""
    es = {eta: nonsym_E(eta).poly
          for d in range(maxdeg + 1) for eta in compositions_of(d, m)}
    rhs = _pair_reps(maxdeg, m, (
        (_cauchy_coeff(MPartition(eta, ())), e.terms, e.invert_params().terms)
        for eta, e in es.items()))
    yield None, _cauchy_lhs(m, m, maxdeg), _at_reps(2 * m, rhs)


def kernel_hecke_symmetry_cases(m, maxdeg):
    """T_i^{(x)} K-bar_m = T_{m-i}^{(y)} K-bar_m for i = 1..m-1, on
    alphabets of size m; witness ("T", i)."""
    kbar = _orbit_pairs(m, m, m, _kbar(m, m, maxdeg))
    for i in range(1, m):
        yield ("T", i), kbar.map_T_x(i).poly, kbar.map_T_y(m - i).poly


def kernel_xy_symmetry_cases(m, maxdeg):
    """K_m(x,y) = K_m(y,x) on alphabets of size m + maxdeg."""
    N = m + maxdeg
    km = _km_reps(m, N, N, maxdeg)
    yield (None, _at_reps(2 * N, km),
           _at_reps(2 * N, {(b, a): c for (a, b), c in km.items()}))


def kernel_eigen_symmetry_cases(m, maxdeg):
    """Y_i^{(x)} K_m = Y_i^{(y)} K_m (i <= m, witness ("Y", i)) and
    D^{(x)} K_m = D^{(y)} K_m (witness "D") on truncations, on alphabets of
    size m + max(maxdeg, 1): D needs more than m letters."""
    N = m + max(maxdeg, 1)
    f = km_truncated(m, N, N, maxdeg).poly
    for i in range(1, m + 1):
        yield ("Y", i), apply_Y(f, i, 1, N), apply_Y(f, i, N + 1, 2 * N)
    yield "D", apply_D(f, m, 1, N), apply_D(f, m, N + 1, 2 * N)
