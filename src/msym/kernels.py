"""Degree-truncated reproducing kernels over two alphabets, the Cauchy-type
identities, and the Hecke/eigenoperator symmetries of kernels.

Each identity is a generator *_cases(m, maxdeg) of (witness, lhs, rhs)
cases with MultiPoly sides, one case per comparison, as cli._run takes
them; the witness is None where the identity makes a single comparison.

A BiPoly is a polynomial in x_1..x_nx, y_1..y_ny stored as one MultiPoly on
the concatenated variable list, with truncation by x-degree and y-degree
(every identity here is bihomogeneous, so truncation is sound).  K_0 is its
power-sum expansion, and a finite product over pairs (x_i, y_j) multiplies
in one truncated series in z = c x_i y_j per pair: (1 - t z)/(1 - z) =
1 + sum_{n>=1} (1 - t) z^n, or 1/(1 - z).
"""

from __future__ import annotations

from .qt_field import QtRational, ONE, T, qt_product
from .polyring import MultiPoly, _bump, _relabel, _settle
from .combinatorics import (MPartition, enumerate_mpartitions, inversions,
                            partitions_of, compositions_of)
from .macdonald import msym_P, nonsym_E, hall_littlewood_H, _c_pairs
from .structure import z_lambda_qt, norm_formula, powersum_t, _norm_pairs
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

    def __add__(self, other):
        return BiPoly(self.nx, self.ny, self.poly + other.poly)

    def __sub__(self, other):
        return BiPoly(self.nx, self.ny, self.poly - other.poly)

    def scale(self, c):
        return BiPoly(self.nx, self.ny, self.poly.scale(c))

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

    def scale_y_block_q(self, upto):
        """Substitute y_i -> q y_i for i <= upto."""
        nx = self.nx
        return BiPoly(self.nx, self.ny, _relabel(
            self.poly, range(self.poly.nvars),
            [(j, 1) for j in range(nx, nx + upto)]))

    def swap_xy(self):
        if self.nx != self.ny:
            raise ValueError("swap needs equal alphabets")
        nx = self.nx
        src = [*range(nx, 2 * nx), *range(nx)]
        return BiPoly(self.nx, self.ny, _relabel(self.poly, src, ()))

    def map_T_x(self, i):
        return BiPoly(self.nx, self.ny, apply_T(self.poly, i))

    def map_T_y(self, i):
        return BiPoly(self.nx, self.ny, apply_T(self.poly, self.nx + i))

    def __str__(self):
        return str(self.poly)


def _xy_series(nx, ny, i, j, coeffs):
    """sum_k coeffs[k] (x_i y_j)^k as a BiPoly."""
    terms = {}
    for k, c in enumerate(coeffs):
        e = [0] * (nx + ny)
        e[i - 1] = k
        e[nx + j - 1] = k
        terms[tuple(e)] = c
    return BiPoly(nx, ny, MultiPoly(nx + ny, terms))


def _pair_sum(Nx, Ny, maxdeg, terms):
    """sum c f(x) g(y) over the (c, f, g) in terms, truncated; f lives in
    Nx variables and g in Ny.  Every product of a term of f with a term of
    c g goes into one accumulation, so each coefficient is reduced once."""
    out = {}
    for c, f, g in terms:
        cg = [(e, v * c) for e, v in g.terms.items() if sum(e) <= maxdeg]
        for ef, v in f.terms.items():
            if sum(ef) <= maxdeg:
                for e, w in cg:
                    _bump(out, ef + e, v * w)
    return BiPoly(Nx, Ny, MultiPoly._raw(Nx + Ny, _settle(out)))


def k0_truncated(Nx, Ny, maxdeg):
    """K_0(x,y) = sum_lambda z_lambda(q,t)^{-1} p_lambda(x) p_lambda(y),
    truncated to degree maxdeg."""
    return _pair_sum(Nx, Ny, maxdeg, (
        (z_lambda_qt(lam).inverse(), powersum_t(MPartition((), lam), Nx),
         powersum_t(MPartition((), lam), Ny))
        for d in range(maxdeg + 1) for lam in partitions_of(d)))


def _km_bracket(m, Nx, Ny, maxdeg, qinv):
    """prod_{i+j<=m} (1 - t c x_i y_j)/(1 - c x_i y_j) prod_{i+j=m+1}
    1/(1 - c x_i y_j), c = 1/q (qinv) or 1, truncated; one series per pair."""
    s = -1 if qinv else 0
    geometric = [QtRational.monomial(1, s * k, 0) for k in range(maxdeg + 1)]
    ratio = [ONE] + [(ONE - T) * c for c in geometric[1:]]
    acc = BiPoly.one(Nx, Ny)
    for i in range(1, m + 1):
        for j in range(1, m + 2 - i):
            series = ratio if i + j <= m else geometric
            acc = acc.mul(_xy_series(Nx, Ny, i, j, series), maxdeg)
    return acc


def km_pre_truncated(m, Nx, Ny, maxdeg):
    """The un-symmetrized kernel K-bar_m = K_0 * bracket."""
    return k0_truncated(Nx, Ny, maxdeg).mul(
        _km_bracket(m, Nx, Ny, maxdeg, qinv=True), maxdeg)


def km_truncated(m, Nx, Ny, maxdeg):
    """K_m = t^{-binom(m,2)} K_0(x,y) T^{(x)}_{w_m}[bracket], truncated."""
    if Nx < m or Ny < m:
        raise ValueError("alphabets must have at least m letters")
    bracket = _km_bracket(m, Nx, Ny, maxdeg, qinv=True).poly
    bracket = BiPoly(Nx, Ny, apply_T_word(bracket, longest_word(m)))
    out = k0_truncated(Nx, Ny, maxdeg).mul(bracket, maxdeg)
    return out.scale(QtRational.monomial(1, 0, -(m * (m - 1) // 2)))


def _P_basis(m, N, maxdeg):
    """{Lambda: P_Lambda in N variables} over the m-partitions of degree
    <= maxdeg realized in N variables."""
    return {lab: msym_P(lab, N).poly for d in range(maxdeg + 1)
            for lab in enumerate_mpartitions(m, d, max_sym_length=N - m)}


def km_sum_truncated(m, N, maxdeg):
    """sum_Lambda b_Lambda P_Lambda(x) P_Lambda(y) with
    b_Lambda = 1/<P_Lambda, P_Lambda>_m, both alphabets of size N."""
    return _pair_sum(N, N, maxdeg, (
        (norm_formula(lab).inverse(), p, p)
        for lab, p in _P_basis(m, N, maxdeg).items()))


def km_expansion_cases(m, maxdeg):
    """K_m against its P-basis expansion up to the truncation degree, on
    alphabets of size m + maxdeg."""
    N = m + maxdeg
    yield (None, km_truncated(m, N, N, maxdeg).poly,
           km_sum_truncated(m, N, maxdeg).poly)


def hl_kernel_cases(m, maxdeg):
    """t-symmetrized Hall-Littlewood kernel:
    t^{-binom(m,2)} T^{(x)}_{w_m}[prod(1-t x_i y_j)/prod(1-x_i y_j)]
      = sum_a t^{-Inv(a)} H_a(x;t) H_a(y;t)."""
    bracket = _km_bracket(m, m, m, maxdeg, qinv=False).poly
    lhs = apply_T_word(bracket, longest_word(m)).scale(
        QtRational.monomial(1, 0, -(m * (m - 1) // 2)))
    hs = {a: hall_littlewood_H(a).poly
          for d in range(maxdeg + 1) for a in compositions_of(d, m)}
    rhs = _pair_sum(m, m, maxdeg, (
        (QtRational.monomial(1, 0, -inversions(a)), h, h)
        for a, h in hs.items()))
    yield None, lhs, rhs.poly


def _cauchy_lhs(m, N, maxdeg):
    """K_0(x, y~) prod_{i<j<=m} (1-t x_i y_j)/(1-x_i y_j)
    * prod_{i<=m} 1/(1-x_i y_i) on alphabets of size N, with y_1..y_m
    scaled by q: each pair is one series in x_i y_j."""
    ratio = [ONE] + [ONE - T] * maxdeg
    acc = k0_truncated(N, N, maxdeg).scale_y_block_q(m)
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            series = ratio if j > i else [ONE] * (maxdeg + 1)
            acc = acc.mul(_xy_series(N, N, i, j, series), maxdeg)
    return acc


def _cauchy_coeff(diagram):
    """The Cauchy expansion coefficient: the product over squares of
    (1-q^{a}t^{l+1})/(1-q^{a~+1}t^{l~}), the inverse of the norm formula
    without its q^{|a|} t^{Inv(a)} prefactor."""
    return qt_product(1, 0, 0, _c_pairs(diagram), _norm_pairs(diagram))


def cauchy_cases(m, maxdeg):
    """K_0(x,y~) prod_{i<j<=m}(1-tx_iy_j)/(1-x_iy_j) prod_i 1/(1-x_iy_i)
      = sum_Lambda a_Lambda P_Lambda(x;q,t) P_Lambda(y;1/q,1/t), on
    alphabets of size m + maxdeg."""
    N = m + maxdeg
    lhs = _cauchy_lhs(m, N, maxdeg)
    rhs = _pair_sum(N, N, maxdeg, (
        (_cauchy_coeff(lab), p, p.invert_params())
        for lab, p in _P_basis(m, N, maxdeg).items()))
    yield None, lhs.poly, rhs.poly


def cauchy_identity_check(m, maxdeg):
    """Whether every case of cauchy_cases(m, maxdeg) holds exactly."""
    return all(lhs == rhs for _, lhs, rhs in cauchy_cases(m, maxdeg))


def nonsym_cauchy_cases(m, maxdeg):
    """The same identity on alphabets of length m, expanded over the
    non-symmetric Macdonald polynomials E_eta."""
    lhs = _cauchy_lhs(m, m, maxdeg)
    es = {eta: nonsym_E(eta).poly
          for d in range(maxdeg + 1) for eta in compositions_of(d, m)}
    rhs = _pair_sum(m, m, maxdeg, (
        (_cauchy_coeff(MPartition(eta, ())), e, e.invert_params())
        for eta, e in es.items()))
    yield None, lhs.poly, rhs.poly


def kernel_hecke_symmetry_cases(m, maxdeg):
    """T_i^{(x)} K-bar_m = T_{m-i}^{(y)} K-bar_m for i = 1..m-1, on
    alphabets of size m; witness ("T", i)."""
    kbar = km_pre_truncated(m, m, m, maxdeg)
    for i in range(1, m):
        yield ("T", i), kbar.map_T_x(i).poly, kbar.map_T_y(m - i).poly


def kernel_xy_symmetry_cases(m, maxdeg):
    """K_m(x,y) = K_m(y,x) on alphabets of size m + maxdeg."""
    N = m + maxdeg
    km = km_truncated(m, N, N, maxdeg)
    yield None, km.poly, km.swap_xy().poly


def kernel_eigen_symmetry_cases(m, maxdeg):
    """Y_i^{(x)} K_m = Y_i^{(y)} K_m (i <= m, witness ("Y", i)) and
    D^{(x)} K_m = D^{(y)} K_m (witness "D") on truncations, on alphabets of
    size m + max(maxdeg, 1): D needs more than m letters."""
    N = m + max(maxdeg, 1)
    f = km_truncated(m, N, N, maxdeg).poly
    for i in range(1, m + 1):
        yield ("Y", i), apply_Y(f, i, 1, N), apply_Y(f, i, N + 1, 2 * N)
    yield "D", apply_D(f, m, 1, N), apply_D(f, m, N + 1, 2 * N)
